//! Extension experiment: continuous-service overload sweep.
//!
//! Runs the serve loop ([`ServeLoop`]) against open arrival streams at
//! several offered loads × arrival processes, with overload control
//! (admission + brownout) on and off, and reports stability verdicts:
//! under overload the controlled system must keep the queue and decision
//! latency bounded while the anytime ladder visibly degrades; at low
//! load it must stay on the exact rung and shed (almost) nothing.
//!
//! Supports `--small` (fewer cells, shorter horizon) and
//! `--journal PATH` for crash-consistent resume, like the other sweeps.
//! Writes `BENCH_serve.json` at the repo root (under `target/` with
//! `--small`).

use hare_baselines::LadderServe;
use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_experiments::{journaled_cells, paper_line, parse_args, write_record, Journal, Table};
use hare_sim::{ServeConfig, ServeLoop, ServeReport};
use hare_workload::{estimate_capacity_jobs_per_sec, ArrivalProcess, OpenArrivalConfig};
use std::fmt::Write as _;

/// One sweep cell: offered load × arrival process × control mode.
#[derive(Clone, Copy, Debug)]
struct Cell {
    load: f64,
    process: &'static str,
    throttled: bool,
}

impl Cell {
    fn mode(&self) -> &'static str {
        if self.throttled {
            "throttled"
        } else {
            "unthrottled"
        }
    }
}

/// The canonical shape parameters per process name (matches `hare serve`).
fn process(name: &str) -> ArrivalProcess {
    match name {
        "poisson" => ArrivalProcess::Poisson,
        "bursty" => ArrivalProcess::Bursty {
            on_fraction: 0.25,
            boost: 3.0,
            mean_cycle: SimDuration::from_secs(600),
        },
        "diurnal" => ArrivalProcess::Diurnal {
            period: SimDuration::from_secs(3600),
            amplitude: 0.9,
        },
        other => unreachable!("unknown process {other}"),
    }
}

fn config(cell: &Cell, seed: u64, horizon_secs: u64) -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        process: process(cell.process),
        load_factor: cell.load,
        seed,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec = estimate_capacity_jobs_per_sec(&counts, &arrivals, 256);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        ..ServeConfig::default()
    };
    if !cell.throttled {
        cfg = cfg.unthrottled();
    }
    cfg
}

/// The journaled per-cell facts, packed as a `|`-separated note so a
/// resumed run can rebuild the table and verdicts without re-simulating.
struct Note {
    admitted: u64,
    completed: u64,
    drained: u64,
    shed: u64,
    rejected: u64,
    queue_max: usize,
    min_budget: f64,
    p99: f64,
    exact: u64,
    degraded: u64,
}

fn note_of(report: &ServeReport) -> String {
    let exact = report.rung_hits.get("exact").copied().unwrap_or(0);
    let degraded: u64 = report
        .rung_hits
        .iter()
        .filter(|(r, _)| r.as_str() != "exact")
        .map(|(_, n)| n)
        .sum();
    format!(
        "{}|{}|{}|{}|{}|{}|{:.2}|{:.3}|{exact}|{degraded}",
        report.counters.admitted,
        report.completed,
        report.counters.drained,
        report.counters.shed,
        report.counters.rejected(),
        report.queue_depth_max,
        report.min_budget_level,
        report.latency_quantile(0.99).unwrap_or(0.0),
    )
}

fn parse_note(s: &str) -> Note {
    let mut it = s.split('|');
    let mut field = || it.next().expect("note field");
    Note {
        admitted: field().parse().expect("admitted"),
        completed: field().parse().expect("completed"),
        drained: field().parse().expect("drained"),
        shed: field().parse().expect("shed"),
        rejected: field().parse().expect("rejected"),
        queue_max: field().parse().expect("queue_max"),
        min_budget: field().parse().expect("min_budget"),
        p99: field().parse().expect("p99"),
        exact: field().parse().expect("exact"),
        degraded: field().parse().expect("degraded"),
    }
}

fn run_cell(cell: &Cell, seed: u64, horizon_secs: u64) -> (f64, String) {
    let cfg = config(cell, seed, horizon_secs);
    let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut LadderServe::new());
    assert!(
        report.counters.conserved(),
        "admission conservation violated: {:?}",
        report.counters
    );
    (report.mean_jct_secs, note_of(&report))
}

fn main() {
    let (seeds, csv, extra) = parse_args();
    let seed = seeds[0];
    let small = extra.iter().any(|a| a == "--small");

    // `--small` trims cells, not the horizon: a shorter horizon never
    // accumulates enough backlog to exercise the overload machinery.
    let horizon_secs: u64 = 4_000;
    let loads: &[f64] = if small {
        &[0.5, 2.0]
    } else {
        &[0.5, 0.8, 1.3, 2.0]
    };
    let processes: &[&'static str] = if small {
        &["poisson"]
    } else {
        &["poisson", "bursty", "diurnal"]
    };

    let mut cells = Vec::new();
    for &load in loads {
        for &process in processes {
            for throttled in [true, false] {
                cells.push(Cell {
                    load,
                    process,
                    throttled,
                });
            }
        }
    }

    // Every cell is an independent simulation: run them on the shared
    // pool, journaling each finished cell. Results come back in cell
    // order, so table and verdicts are deterministic.
    let results = journaled_cells(
        &extra,
        &cells,
        |cell| {
            let scenario = format!(
                "load={:.2} {} {} h={horizon_secs}",
                cell.load,
                cell.process,
                cell.mode()
            );
            Journal::key("serve_sweep", &scenario, seed)
        },
        |cell| run_cell(cell, seed, horizon_secs),
    );

    let mut table = Table::new(&[
        "load",
        "process",
        "mode",
        "mean JCT (s)",
        "admitted",
        "completed",
        "drained",
        "shed",
        "rejected",
        "queue max",
        "min budget",
        "p99 (s)",
        "exact",
        "degraded",
    ]);
    for (cell, (jct, note)) in cells.iter().zip(&results) {
        let mut row = vec![
            format!("{:.2}", cell.load),
            cell.process.to_string(),
            cell.mode().to_string(),
            format!("{jct:.0}"),
        ];
        row.extend(note.split('|').map(String::from));
        table.row(row);
    }
    table.print(&format!(
        "Extension — continuous service under open arrivals \
         (testbed, horizon {horizon_secs} s, seed {seed})"
    ));
    if csv {
        print!("{}", table.to_csv());
    }

    let find = |load: f64, process: &str, throttled: bool| -> (f64, Note) {
        let i = cells
            .iter()
            .position(|c| c.load == load && c.process == process && c.throttled == throttled)
            .expect("sweep cell");
        (results[i].0, parse_note(&results[i].1))
    };
    let lo = *loads.first().expect("loads");
    let hi = *loads.last().expect("loads");
    let (calm_jct, calm) = find(lo, "poisson", true);
    let (calm_open_jct, calm_open) = find(lo, "poisson", false);
    let (_, hot) = find(hi, "poisson", true);
    let (_, hot_open) = find(hi, "poisson", false);

    // Headlines: the overload-resilience acceptance criteria. Beyond
    // capacity the controlled system must stay stable — queue bounded
    // under the admission cap with the backlog surviving to the drain
    // (or shed under pressure), decision latency held down by the
    // brownout (vs the unthrottled full-budget solves), and the anytime
    // ladder visibly descending instead of stalling. Below capacity,
    // control must be invisible: the exact rung dominates, nothing is
    // shed under pressure, and the end-of-horizon drain residue is
    // negligible.
    paper_line(
        &format!("overload (load {hi:.1}) keeps the queue bounded"),
        "(extension; admission cap + graceful shed/drain)",
        &format!(
            "queue max {} (cap 256), drained {} shed {} of {} admitted",
            hot.queue_max, hot.drained, hot.shed, hot.admitted
        ),
        hot.queue_max <= 256 && hot.drained + hot.shed > 0,
    );
    paper_line(
        &format!("overload (load {hi:.1}) brownout cuts decision latency"),
        "(extension; budget controller caps solver work)",
        &format!(
            "p99 {:.3} s vs {:.3} s unthrottled, min budget {:.2}",
            hot.p99, hot_open.p99, hot.min_budget
        ),
        hot.p99 < hot_open.p99,
    );
    paper_line(
        &format!("overload (load {hi:.1}) descends the anytime ladder"),
        "(extension; degraded rungs win under pressure)",
        &format!(
            "{} degraded vs {} exact decisions, min budget {:.2}",
            hot.degraded, hot.exact, hot.min_budget
        ),
        hot.degraded > 0 && hot.min_budget < 1.0,
    );
    paper_line(
        &format!("low load (load {lo:.1}) stays on the exact rung"),
        "(extension; control invisible below capacity)",
        &format!(
            "{} exact vs {} degraded decisions",
            calm.exact, calm.degraded
        ),
        calm.exact * 2 > calm.exact + calm.degraded,
    );
    paper_line(
        &format!("low load (load {lo:.1}) sheds (almost) nothing"),
        "(extension; zero shed, drain residue <=5% of admitted)",
        &format!(
            "drained {} shed {} rejected {} of {} admitted",
            calm.drained, calm.shed, calm.rejected, calm.admitted
        ),
        calm.drained * 20 <= calm.admitted.max(1) && calm.shed == 0 && calm.rejected == 0,
    );
    paper_line(
        &format!("low load (load {lo:.1}) matches the unthrottled scheduler"),
        "(extension; identical outcomes below capacity)",
        &format!(
            "mean JCT {calm_jct:.0} s vs {calm_open_jct:.0} s, \
             completed {} vs {}",
            calm.completed, calm_open.completed
        ),
        (calm_jct - calm_open_jct).abs() < 1e-9 && calm.completed == calm_open.completed,
    );

    // Machine-readable summary for CI and the benchmark history.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"serve_sweep\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"horizon_secs\": {horizon_secs},");
    let _ = writeln!(json, "  \"small\": {small},");
    json.push_str("  \"cells\": [\n");
    let n = cells.len();
    for (k, (cell, (jct, note))) in cells.iter().zip(&results).enumerate() {
        let f = parse_note(note);
        let _ = writeln!(
            json,
            "    {{\"load\": {:.2}, \"process\": \"{}\", \"mode\": \"{}\", \
             \"mean_jct_secs\": {:.3}, \"admitted\": {}, \"completed\": {}, \
             \"drained\": {}, \"shed\": {}, \"rejected\": {}, \"queue_max\": {}, \
             \"min_budget\": {:.2}, \"p99_secs\": {:.3}, \"exact\": {}, \
             \"degraded\": {}}}{}",
            cell.load,
            cell.process,
            cell.mode(),
            jct,
            f.admitted,
            f.completed,
            f.drained,
            f.shed,
            f.rejected,
            f.queue_max,
            f.min_budget,
            f.p99,
            f.exact,
            f.degraded,
            if k + 1 < n { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    write_record("BENCH_serve.json", &json, small);
}
