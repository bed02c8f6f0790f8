//! Simulator performance report: writes `BENCH_sim.json` at the repo root
//! (under `target/` with `--smoke`).
//!
//! Records sim-only wall-clock and events/sec for every scheme on three
//! cluster scales (small = 15-GPU testbed × 40 jobs, medium = 64 GPUs ×
//! 80 jobs, large = 160 GPUs × 200 jobs), the sim-only time of a
//! multi-seed medium sweep, and the end-to-end time of a fig-suite-shaped
//! experiment (workload builds included). Pre-overhaul numbers, measured
//! with the same methodology at the commit before the hot-path work, are
//! embedded as the `before` block so the file carries its own trajectory.
//!
//! Methodology: "sim-only" times exactly the event loop — for Hare the
//! offline schedule is precomputed outside the timer; baselines construct
//! their (cheap) policy inside it. Each reported time is per run, from
//! the best of 5 samples that repeat short runs to at least 50 ms. Workload
//! construction is never timed except in the `fig_suite` entry, which is
//! deliberately end-to-end.
//!
//! The `huge` scenario exercises the sharded datacenter path: a 12k-GPU
//! cluster split into cells, 100k jobs drawn from a lazy arrival stream
//! (never materialized as a global trace), Hare planning within every
//! cell, and the per-cell reports merged into one. `--smoke` runs a
//! reduced-scale variant (512 GPUs, 2k jobs, 8 cells) of the same path.
//!
//! Run with `cargo run --release -p hare-bench --bin sim_report`
//! (`-- --smoke` for the CI-sized variant: reduced `huge` scenario, short
//! sweep, no fig suite; `-- --check-regression` to additionally fail if
//! measured events/sec fall more than 20% below the committed
//! BENCH_sim.json after normalizing out machine speed, or if the guard
//! could not judge every scheme).

#![warn(clippy::unwrap_used)]

use hare_baselines::{build_simulation, RunOptions, Scheme};
use hare_cluster::{Cluster, Heterogeneity};
use hare_core::{HareScheduler, Schedule};
use hare_experiments::{sweep_table, testbed_workload, workspace_root, write_record, LargeScale};
use hare_sim::{FaultPlan, GatewayConfig, OfflineReplay, ShardedTrace, SimWorkload, Simulation};
use hare_workload::{OpenArrivalConfig, ProfileDb, StreamedTrace};
use std::fmt::Write as _;
use std::time::Instant;

/// Shortest timed sample: a sample repeats the run until its summed
/// sim-only time reaches this, so millisecond-scale runs sit well above
/// timer jitter.
const MIN_SAMPLE_SECS: f64 = 0.050;

/// Samples per run; the fastest is reported.
const SAMPLES: usize = 5;

/// Sim-only wall-clock and events processed per run for each `(scheme,
/// workload, seed)`: the fastest of [`SAMPLES`] samples, each the mean
/// over enough repeated runs to last [`MIN_SAMPLE_SECS`]. Samples are
/// taken in rounds over all the runs, so a burst of load on a shared host
/// slows one sample of many runs rather than every sample of one. The
/// engine is deterministic, so every run processes identical events and
/// only the wall clock varies — the min is the least-noisy estimate,
/// which matters for the millisecond-scale scenarios the regression guard
/// compares across machines.
fn sim_only(runs: &[(Scheme, &SimWorkload, u64)]) -> Vec<(f64, u64)> {
    // Hare replays a schedule computed once per run, outside the timer.
    let schedules: Vec<Option<Schedule>> = runs
        .iter()
        .map(|&(scheme, w, _)| {
            (scheme == Scheme::Hare).then(|| HareScheduler::default().schedule(&w.problem).schedule)
        })
        .collect();
    let mut best = vec![(f64::INFINITY, 0); runs.len()];
    for _ in 0..SAMPLES {
        for ((&(scheme, w, seed), schedule), best) in runs.iter().zip(&schedules).zip(&mut best) {
            let (mut total, mut repeats) = (0.0, 0u32);
            while total < MIN_SAMPLE_SECS {
                let (secs, events) = run_once(scheme, w, seed, schedule.as_ref());
                total += secs;
                repeats += 1;
                best.1 = events;
            }
            best.0 = best.0.min(total / f64::from(repeats));
        }
    }
    best
}

/// One timed sim-only run: its seconds and the events it processed.
fn run_once(scheme: Scheme, w: &SimWorkload, seed: u64, schedule: Option<&Schedule>) -> (f64, u64) {
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    };
    let plan = FaultPlan::default();
    let mut replay = schedule.map(|s| OfflineReplay::new("Hare", w, s));
    let t = Instant::now();
    let sim = build_simulation(scheme, w, opts, &plan);
    let (_, events) = match (scheme, replay.as_mut()) {
        (Scheme::Hare, Some(replay)) => sim.run_counted(replay),
        (Scheme::GavelFifo, _) => sim.run_counted(&mut hare_baselines::GavelFifo::new()),
        (Scheme::Srtf, _) => sim.run_counted(&mut hare_baselines::Srtf::new()),
        (Scheme::SchedHomo, _) => sim.run_counted(&mut hare_baselines::SchedHomo::new()),
        (Scheme::SchedAllox, _) => sim.run_counted(&mut hare_baselines::SchedAllox::new()),
        (Scheme::Hare, None) => unreachable!("Hare runs replay a precomputed schedule"),
    }
    .expect("simulation failed");
    (t.elapsed().as_secs_f64(), events)
}

/// Pre-overhaul sim-only seconds (same scenarios, best of 3 single runs,
/// measured at the commit before the hot-path work; single-threaded).
fn before_total(scenario: &str) -> Option<f64> {
    match scenario {
        "small" => Some(0.300),
        "medium" => Some(2.007),
        "large" => Some(17.381),
        _ => None,
    }
}

/// The `small` scenario's `total_secs` from the committed BENCH_sim.json,
/// if present — the drift baseline for the disabled-tracing check.
fn committed_small_total(root: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(root.join("BENCH_sim.json")).ok()?;
    let value = serde_json::from_str(&text).ok()?;
    value
        .get("scenarios")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("small"))?
        .get("total_secs")?
        .as_f64()
}

/// Committed per-(scenario, scheme) events/sec from BENCH_sim.json — the
/// baseline for `--check-regression`.
fn committed_events_per_sec(root: &std::path::Path) -> Vec<(String, String, f64)> {
    let Some(text) = std::fs::read_to_string(root.join("BENCH_sim.json")).ok() else {
        return Vec::new();
    };
    let Some(value) = serde_json::from_str(&text).ok() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let scenarios = value
        .get("scenarios")
        .and_then(|s| s.as_array())
        .cloned()
        .unwrap_or_default();
    for scen in &scenarios {
        let Some(sname) = scen.get("name").and_then(|n| n.as_str()) else {
            continue;
        };
        for sch in scen
            .get("schemes")
            .and_then(|s| s.as_array())
            .into_iter()
            .flatten()
        {
            if let (Some(name), Some(eps)) = (
                sch.get("name").and_then(|n| n.as_str()),
                sch.get("events_per_sec")
                    .and_then(serde_json::Value::as_f64),
            ) {
                out.push((sname.to_string(), name.to_string(), eps));
            }
        }
    }
    out
}

/// Scenarios the regression guard judges. A `small` run lasts about 2 ms,
/// where allocation and page-fault noise on a shared host exceeds the
/// guard's 20% bound; `medium` and `large` runs last 5–80 ms, and every
/// scheme runs both in full and smoke mode alike.
const GUARDED_SCENARIOS: [&str; 2] = ["medium", "large"];

/// Fail (return false) if any measured events/sec falls more than 20%
/// below the committed baseline *after* normalizing out machine speed:
/// each (scenario, scheme) pair's measured/committed ratio is divided by
/// the median ratio, so a uniformly slower or faster machine cancels out
/// and only *relative* hot-path regressions trip the guard. Pairs outside
/// [`GUARDED_SCENARIOS`] or with no committed baseline are reported but
/// not judged, and a scheme with no judged pair fails the guard: a guard
/// that judges nothing would pass anything.
fn check_regression(
    committed: &[(String, String, f64)],
    measured: &[(String, String, f64)],
) -> bool {
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let mut judged: Vec<&str> = Vec::new();
    for (scen, scheme, eps) in measured {
        let Some((_, _, base)) = committed
            .iter()
            .find(|(s, n, _)| s == scen && n == scheme)
            .filter(|(_, _, base)| *base > 0.0)
        else {
            println!("check-regression: {scen}/{scheme}: no committed baseline, not judged");
            continue;
        };
        if !GUARDED_SCENARIOS.contains(&scen.as_str()) {
            println!(
                "check-regression: {scen}/{scheme}: {:.2}x raw — too short to judge, skipped",
                eps / base
            );
            continue;
        }
        ratios.push((format!("{scen}/{scheme}"), eps / base));
        judged.push(scheme);
    }
    let mut ok = true;
    let schemes: std::collections::BTreeSet<&str> = measured
        .iter()
        .map(|(_, scheme, _)| scheme.as_str())
        .collect();
    for scheme in schemes {
        if !judged.contains(&scheme) {
            println!("check-regression: {scheme}: no pair judged  <-- FAIL");
            ok = false;
        }
    }
    if ratios.is_empty() {
        return false;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    for (key, ratio) in &ratios {
        let normalized = ratio / median;
        let flag = if normalized < 0.8 {
            ok = false;
            "  <-- REGRESSION (>20% below median)"
        } else {
            ""
        };
        println!("check-regression: {key}: {ratio:.2}x raw, {normalized:.2}x of median{flag}");
    }
    ok
}

/// The sharded datacenter scenario: cells simulated independently, jobs
/// drawn from a lazy arrival stream and routed by the gateway, Hare
/// planning within every cell. Returns the JSON fragment. "sim-only"
/// sums the per-cell event loops; routing, workload builds and the
/// per-cell Hare schedules stay outside the timer, matching the other
/// scenarios' methodology.
fn huge_scenario(smoke: bool) -> String {
    let (n_gpus, n_jobs, n_cells) = if smoke {
        (512u32, 2_000u64, 8usize)
    } else {
        (12_288, 100_000, 192)
    };
    let cluster = Cluster::with_heterogeneity(Heterogeneity::High, n_gpus);
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    let arrivals = OpenArrivalConfig {
        seed: 11,
        ..OpenArrivalConfig::default()
    }
    .calibrated(&counts);
    let stream = StreamedTrace::new(&arrivals, n_jobs).map(|a| a.spec);
    let t = Instant::now();
    let sharded = ShardedTrace::route(&cluster, n_cells, &GatewayConfig::default(), stream);
    let route_secs = t.elapsed().as_secs_f64();
    let db = ProfileDb::new(7);
    let mut sim_secs = 0.0;
    let mut tasks = 0u64;
    let merged = sharded
        .run_with(|_ci, cell, specs| {
            let w = SimWorkload::build(cell.cluster().clone(), specs.to_vec(), &db);
            tasks += w.problem.n_tasks() as u64;
            let out = HareScheduler::default().schedule(&w.problem);
            let mut policy = OfflineReplay::new("Hare", &w, &out.schedule);
            let timer = Instant::now();
            let r = Simulation::new(&w)
                .with_noise(0.02)
                .with_seed(1)
                .run_counted(&mut policy);
            sim_secs += timer.elapsed().as_secs_f64();
            r
        })
        .expect("huge sharded run failed");
    let eps = merged.events_total as f64 / sim_secs;
    let max_cell_jobs = merged.cells.iter().map(|c| c.jobs).max().unwrap_or(0);
    println!(
        "huge: {n_gpus} gpus, {n_jobs} jobs, {n_cells} cells, {tasks} tasks — \
         route {route_secs:.2}s, sim-only {sim_secs:.2}s, {} events, {eps:.0} events/s \
         (max {max_cell_jobs} jobs in one cell)",
        merged.events_total
    );
    format!(
        "  \"huge\": {{\"gpus\": {n_gpus}, \"jobs\": {n_jobs}, \"cells\": {n_cells}, \
         \"tasks\": {tasks}, \"scheme\": \"Hare\", \"route_secs\": {route_secs:.3}, \
         \"sim_only_secs\": {sim_secs:.3}, \"events\": {}, \"events_per_sec\": {eps:.0}, \
         \"max_cell_jobs\": {max_cell_jobs}, \"makespan_secs\": {:.0}}},\n",
        merged.events_total,
        merged.report.makespan.as_secs_f64()
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check-regression");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let root = workspace_root();
    let committed_small = committed_small_total(&root);
    let committed_eps = committed_events_per_sec(&root);
    let mut measured_eps: Vec<(String, String, f64)> = Vec::new();

    let medium_cfg = LargeScale {
        n_gpus: 64,
        n_jobs: 80,
        ..LargeScale::default()
    };
    // Smoke mode keeps `large`, the scenario whose runs last longest, so
    // the regression guard judges every scheme on two scales.
    let scenarios: Vec<(&str, SimWorkload)> = vec![
        ("small", testbed_workload(1)),
        ("medium", medium_cfg.workload(1)),
        ("large", LargeScale::default().workload(1)),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p hare-bench --bin sim_report{}\",",
        if smoke { " -- --smoke" } else { "" }
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    json.push_str(
        "  \"methodology\": \"sim-only = event loop only, per run: best of 5 samples, each \
         the mean over repeated runs lasting at least 50 ms (Hare schedule precomputed outside \
         the timer); events/sec = engine events processed / sim-only secs; \
         fig_suite is end-to-end including workload builds; before = best of 3 single runs at \
         the pre-overhaul commit, single-threaded\",\n",
    );
    json.push_str(
        "  \"before\": {\"small_total_secs\": 0.300, \"medium_total_secs\": 2.007, \
         \"large_total_secs\": 17.381, \"large_schemes\": {\"Hare\": 0.114, \
         \"Gavel_FIFO\": 0.361, \"SRTF\": 4.720, \"Sched_Homo\": 4.334, \
         \"Sched_Allox\": 7.852}, \"sweep_sim_only_secs\": 9.042},\n",
    );

    // --- Per-scale, per-scheme sim-only wall-clock + events/sec ------
    json.push_str("  \"scenarios\": [\n");
    let n_scen = scenarios.len();
    let runs: Vec<(Scheme, &SimWorkload, u64)> = scenarios
        .iter()
        .flat_map(|(_, w)| Scheme::ALL.map(|scheme| (scheme, w, 1)))
        .collect();
    let timings = sim_only(&runs);
    let mut small_total = 0.0;
    for (k, (name, w)) in scenarios.iter().enumerate() {
        println!(
            "{name}: {} tasks, {} gpus",
            w.problem.n_tasks(),
            w.cluster.gpu_count()
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"gpus\": {}, \"jobs\": {}, \"tasks\": {}, \"schemes\": [",
            w.cluster.gpu_count(),
            w.problem.jobs.len(),
            w.problem.n_tasks()
        );
        let mut total = 0.0;
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            let (secs, events) = timings[k * Scheme::ALL.len() + i];
            total += secs;
            let eps = events as f64 / secs;
            measured_eps.push((name.to_string(), scheme.name().to_string(), eps));
            println!(
                "  {:<12} {secs:.3}s  {events} events  {eps:.0} events/s",
                scheme.name()
            );
            let _ = writeln!(
                json,
                "      {{\"name\": \"{}\", \"secs\": {secs:.4}, \"events\": {events}, \"events_per_sec\": {eps:.0}}}{}",
                scheme.name(),
                if i + 1 < Scheme::ALL.len() { "," } else { "" }
            );
        }
        json.push_str("    ],\n");
        let before = before_total(name);
        let _ = writeln!(json, "    \"total_secs\": {total:.4},");
        match before {
            Some(b) => {
                let _ = writeln!(
                    json,
                    "    \"before_total_secs\": {b:.3}, \"speedup\": {:.1}}}{}",
                    b / total,
                    if k + 1 < n_scen { "," } else { "" }
                );
                println!("  total {total:.3}s (before {b:.3}s, {:.1}x)", b / total);
            }
            None => {
                let _ = writeln!(
                    json,
                    "    \"before_total_secs\": null, \"speedup\": null}}{}",
                    if k + 1 < n_scen { "," } else { "" }
                );
                println!("  total {total:.3}s");
            }
        }
        if *name == "small" {
            small_total = total;
        }
    }
    json.push_str("  ],\n");

    // --- Sharded datacenter scenario ---------------------------------
    json.push_str(&huge_scenario(smoke));

    // --- Tracing overhead --------------------------------------------
    // The observability layer must be zero-cost when disabled. The
    // scenario timings above already run the disabled path (one Option
    // check per engine hook), so comparing the small total against the
    // committed BENCH_sim.json is the drift check; the same run is then
    // repeated with a ChromeTraceSink attached to put the *enabled* cost
    // on the record.
    {
        let (_, w0) = &scenarios[0];
        match committed_small {
            Some(b) => {
                let drift = small_total / b;
                println!(
                    "disabled-tracing check: small total {small_total:.3}s vs committed \
                     {b:.3}s ({drift:.2}x — must stay within noise)"
                );
            }
            None => println!("disabled-tracing check: no committed BENCH_sim.json baseline"),
        }
        let out = HareScheduler::default().schedule(&w0.problem);
        let mut policy = OfflineReplay::new("Hare", w0, &out.schedule);
        let sink = std::sync::Arc::new(hare_sim::ChromeTraceSink::new());
        let opts = RunOptions {
            seed: 1,
            ..RunOptions::default()
        };
        let t = Instant::now();
        let (_, traced_events) = build_simulation(Scheme::Hare, w0, opts, &FaultPlan::default())
            .with_trace(sink.clone())
            .run_counted(&mut policy)
            .expect("traced simulation failed");
        let traced_secs = t.elapsed().as_secs_f64();
        println!(
            "tracing enabled (small, Hare): {traced_secs:.3}s, {} trace events recorded",
            sink.len()
        );
        let _ = writeln!(
            json,
            "  \"trace_overhead\": {{\"scenario\": \"small\", \"disabled_total_secs\": {small_total:.4}, \
             \"committed_total_secs\": {}, \"traced_hare_secs\": {traced_secs:.4}, \
             \"engine_events\": {traced_events}, \"trace_events\": {}}},",
            committed_small.map_or("null".to_string(), |b| format!("{b:.4}")),
            sink.len()
        );
    }

    // --- Multi-seed sweep (sim-only): the parallel-harness workload --
    // Workloads are rebuilt per seed exactly like the sweep binaries do,
    // but only the event loops are timed, matching the `before` number.
    let sweep_seeds: u64 = if smoke { 2 } else { 4 };
    let sweep_workloads: Vec<(u64, SimWorkload)> = (1..=sweep_seeds)
        .map(|seed| (seed, medium_cfg.workload(seed)))
        .collect();
    let sweep_runs: Vec<(Scheme, &SimWorkload, u64)> = sweep_workloads
        .iter()
        .flat_map(|(seed, w)| Scheme::ALL.map(|scheme| (scheme, w, *seed)))
        .collect();
    let sweep_secs: f64 = sim_only(&sweep_runs).iter().map(|(secs, _)| secs).sum();
    let sweep_before = (!smoke).then_some(9.042);
    match sweep_before {
        Some(b) => {
            let _ = writeln!(
                json,
                "  \"sweep\": {{\"scenario\": \"medium\", \"seeds\": {sweep_seeds}, \"sim_only_secs\": {sweep_secs:.4}, \"before_secs\": {b:.3}, \"speedup\": {:.1}}},",
                b / sweep_secs
            );
            println!(
                "sweep(medium, {sweep_seeds} seeds): sim-only {sweep_secs:.3}s (before {b:.3}s, {:.1}x)",
                b / sweep_secs
            );
        }
        None => {
            let _ = writeln!(
                json,
                "  \"sweep\": {{\"scenario\": \"medium\", \"seeds\": {sweep_seeds}, \"sim_only_secs\": {sweep_secs:.4}, \"before_secs\": null, \"speedup\": null}},"
            );
            println!("sweep(medium, {sweep_seeds} seeds): sim-only {sweep_secs:.3}s");
        }
    }

    // --- End-to-end fig-suite time -----------------------------------
    // A fig16-shaped sweep (three heterogeneity points, one seed) through
    // the real experiment harness: workload builds, the shared pool, and
    // table assembly all included.
    if smoke {
        json.push_str("  \"fig_suite\": null\n}\n");
    } else {
        use hare_cluster::Heterogeneity;
        let points: Vec<(String, LargeScale)> = [
            ("Low", Heterogeneity::Low),
            ("Mid", Heterogeneity::Mid),
            ("High", Heterogeneity::High),
        ]
        .into_iter()
        .map(|(l, level)| {
            (
                l.to_string(),
                LargeScale {
                    level,
                    ..LargeScale::default()
                },
            )
        })
        .collect();
        let t = Instant::now();
        let table = sweep_table("heterogeneity", &points, &[1]);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(table);
        let _ = writeln!(
            json,
            "  \"fig_suite\": {{\"what\": \"fig16-shaped sweep, 3 heterogeneity points x 1 seed, end-to-end\", \"secs\": {secs:.2}, \"cores\": {cores}}}\n}}"
        );
        println!("fig suite (fig16-shaped, end-to-end): {secs:.2}s on {cores} core(s)");
    }

    write_record("BENCH_sim.json", &json, smoke);

    if check && !check_regression(&committed_eps, &measured_eps) {
        eprintln!("events/sec regressed more than 20% against the committed BENCH_sim.json");
        std::process::exit(1);
    }
}
