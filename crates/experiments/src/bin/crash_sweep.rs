//! Extension experiment: crash-tolerance sweep for the serve loop.
//!
//! Drives the WAL + snapshot recovery machinery (DESIGN.md §13) across a
//! grid of crash epochs × lease timeouts, under a faulty cluster (one
//! transient blackout, one permanent worker death, detected by leases).
//! Every cell injects a [`SchedulerCrash`], recovers from the WAL, and
//! checks the recovered [`ServeReport`] is **byte-identical** (via
//! `to_json`) to the uncrashed golden run of the same configuration.
//! Verdicts also cover lease fault detection and the JCT overhead the
//! injected deaths cost over a fault-free baseline.
//!
//! Supports `--smoke` (a one-cell grid for CI) and `--journal PATH` for
//! crash-consistent resume, like the other sweeps. Writes
//! `BENCH_recovery.json` at the repo root (under `target/` with
//! `--smoke`). Wall-clock recovery times go to the JSON only — stdout
//! stays byte-deterministic.

use hare_baselines::LadderServe;
use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_experiments::{
    journaled_cells, paper_line, parallel_map, parse_args, write_record, Journal, Table,
};
use hare_sim::{
    LeaseConfig, RecoveryError, SchedulerCrash, ServeConfig, ServeLoop, ServeReport,
    SilentWorkerFault, WalOptions,
};
use hare_workload::{estimate_capacity_jobs_per_sec, ArrivalProcess, OpenArrivalConfig};
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

/// One sweep cell: where the scheduler dies × how patient the worker
/// leases are.
#[derive(Clone, Copy, Debug)]
struct Cell {
    crash_epoch: u64,
    timeout_secs: u64,
}

/// The serve configuration under test: open Poisson arrivals over
/// capacity, leases on, and injected silent-worker faults — a transient
/// cluster-wide blackout (every worker goes silent for a fifth of the
/// horizon, so whatever was in flight must requeue) plus one permanent
/// death later — so recovery has lease state, a backoff pool, and
/// zombie completions to carry across the crash. `timeout_secs`
/// parameterizes lease patience; the crash is layered on per cell.
fn config(seed: u64, horizon_secs: u64, timeout_secs: u64) -> ServeConfig {
    let cluster = Cluster::testbed15();
    let mut arrivals = OpenArrivalConfig {
        process: ArrivalProcess::Poisson,
        load_factor: 1.5,
        seed,
        ..OpenArrivalConfig::default()
    };
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    arrivals.capacity_jobs_per_sec = estimate_capacity_jobs_per_sec(&counts, &arrivals, 256);
    let mut cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(horizon_secs),
        lease: Some(LeaseConfig {
            timeout: SimDuration::from_secs(timeout_secs),
            ..LeaseConfig::default()
        }),
        ..ServeConfig::default()
    };
    cfg.faults.silent_workers = (0..cluster.gpu_count())
        .map(|gpu| SilentWorkerFault {
            gpu,
            from: SimTime::from_secs(horizon_secs / 5),
            until: Some(SimTime::from_secs(2 * horizon_secs / 5)),
        })
        .chain(std::iter::once(SilentWorkerFault {
            gpu: 9,
            from: SimTime::from_secs(3 * horizon_secs / 5),
            until: None,
        }))
        .collect();
    cfg
}

/// A fresh WAL path per cell (cells run concurrently in one process).
fn wal_path(cell: &Cell, seed: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hare-crash-sweep-{}-c{}-t{}-{seed}.wal",
        std::process::id(),
        cell.crash_epoch,
        cell.timeout_secs
    ));
    p
}

/// The journaled per-cell facts. `identical` is the headline: recovered
/// report byte-equal to the uncrashed golden.
struct Note {
    identical: bool,
    crashed: bool,
    replayed: u64,
    resumed_secs: f64,
    recover_ms: f64,
}

fn parse_note(s: &str) -> Note {
    let mut it = s.split('|');
    let mut field = || it.next().expect("note field");
    Note {
        identical: field() == "1",
        crashed: field() == "1",
        replayed: field().parse().expect("replayed"),
        resumed_secs: field().parse().expect("resumed_secs"),
        recover_ms: field().parse().expect("recover_ms"),
    }
}

/// Run one cell: inject the crash, recover from the WAL, compare against
/// the golden JSON. Returns (recovered mean JCT, packed note).
fn run_cell(cell: &Cell, seed: u64, horizon_secs: u64, golden_json: &str) -> (f64, String) {
    let mut cfg = config(seed, horizon_secs, cell.timeout_secs);
    cfg.faults.crash = Some(SchedulerCrash {
        at_epoch: cell.crash_epoch,
    });
    let path = wal_path(cell, seed);
    let wal = WalOptions::new(&path);
    let stop = AtomicBool::new(false);
    let serve = ServeLoop::new(Cluster::testbed15(), cfg);
    let crashed = match serve.run_with_wal(&mut LadderServe::new(), &wal, &stop, None) {
        Err(RecoveryError::InjectedCrash { .. }) => true,
        Err(e) => panic!("unexpected WAL-run failure: {e}"),
        // The horizon drained before the crash epoch: the WAL is a
        // completed log, and recovery must replay it to the same report.
        Ok(_) => false,
    };
    // Recover with a *cold* scheduler: its warm state must come back
    // from the snapshot, not survive in memory.
    let t0 = std::time::Instant::now();
    let (report, stats) = serve
        .recover(&mut LadderServe::new(), &wal, &stop, None)
        .unwrap_or_else(|e| panic!("recovery failed for {cell:?}: {e}"));
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    let identical = report.to_json() == golden_json;
    let note = format!(
        "{}|{}|{}|{:.1}|{recover_ms:.3}",
        u8::from(identical),
        u8::from(crashed),
        stats.replayed,
        stats.resumed_at.as_secs_f64(),
    );
    (report.mean_jct_secs, note)
}

fn main() {
    let (seeds, csv, extra) = parse_args();
    let seed = seeds[0];
    let smoke = extra.iter().any(|a| a == "--smoke");

    let horizon_secs: u64 = if smoke { 1_200 } else { 2_000 };
    let crash_epochs: &[u64] = if smoke { &[9] } else { &[1, 9, 33, 150] };
    let timeouts: &[u64] = if smoke { &[60] } else { &[30, 120] };

    let mut cells = Vec::new();
    for &timeout_secs in timeouts {
        for &crash_epoch in crash_epochs {
            cells.push(Cell {
                crash_epoch,
                timeout_secs,
            });
        }
    }

    // Goldens first (a barrier): every grid cell compares against the
    // uncrashed run of its lease timeout, so those must all exist before
    // the cells fan out. The fault-free baseline rides along for the
    // JCT-overhead verdict.
    let mut golden_cfgs: Vec<Option<u64>> = timeouts.iter().map(|&t| Some(t)).collect();
    golden_cfgs.push(None); // fault-free baseline
    let goldens: Vec<ServeReport> = parallel_map(&golden_cfgs, |t| match t {
        Some(timeout_secs) => ServeLoop::new(
            Cluster::testbed15(),
            config(seed, horizon_secs, *timeout_secs),
        )
        .run(&mut LadderServe::new()),
        None => {
            let mut cfg = config(seed, horizon_secs, 60);
            cfg.lease = None;
            cfg.faults.silent_workers.clear();
            ServeLoop::new(Cluster::testbed15(), cfg).run(&mut LadderServe::new())
        }
    });
    let baseline = goldens.last().expect("baseline present");
    let golden_of = |timeout_secs: u64| -> &ServeReport {
        let i = timeouts
            .iter()
            .position(|&t| t == timeout_secs)
            .expect("golden timeout");
        &goldens[i]
    };
    let golden_jsons: Vec<String> = goldens.iter().map(ServeReport::to_json).collect();

    let results = journaled_cells(
        &extra,
        &cells,
        |cell| {
            let scenario = format!(
                "crash={} lease={} h={horizon_secs}",
                cell.crash_epoch, cell.timeout_secs
            );
            Journal::key("crash_sweep", &scenario, seed)
        },
        |cell| {
            let gi = timeouts
                .iter()
                .position(|&t| t == cell.timeout_secs)
                .expect("cell timeout");
            run_cell(cell, seed, horizon_secs, &golden_jsons[gi])
        },
    );

    let mut table = Table::new(&[
        "crash epoch",
        "lease (s)",
        "crashed",
        "identical",
        "replayed",
        "resumed (s)",
        "mean JCT (s)",
    ]);
    for (cell, (jct, note)) in cells.iter().zip(&results) {
        let n = parse_note(note);
        table.row(vec![
            cell.crash_epoch.to_string(),
            cell.timeout_secs.to_string(),
            if n.crashed { "yes" } else { "no" }.to_string(),
            if n.identical { "yes" } else { "NO" }.to_string(),
            n.replayed.to_string(),
            format!("{:.1}", n.resumed_secs),
            format!("{jct:.0}"),
        ]);
    }
    table.print(&format!(
        "Extension — crash-tolerant serve: recovery vs golden \
         (testbed, horizon {horizon_secs} s, seed {seed})"
    ));
    if csv {
        print!("{}", table.to_csv());
    }

    let notes: Vec<Note> = results.iter().map(|(_, n)| parse_note(n)).collect();

    // Verdict 1 — every recovered run is byte-identical to its uncrashed
    // golden, at every crash point and lease timeout.
    let identical = notes.iter().filter(|n| n.identical).count();
    let crashed = notes.iter().filter(|n| n.crashed).count();
    paper_line(
        "recovery is byte-identical to the uncrashed run",
        "(extension; snapshot + WAL replay determinism)",
        &format!(
            "{identical}/{} cells identical ({crashed} crash-injected)",
            cells.len()
        ),
        identical == cells.len() && crashed == cells.len(),
    );

    // Verdict 2 — the leases actually detect the injected deaths in the
    // golden runs (otherwise verdict 1 proved determinism of a run where
    // nothing happened).
    let g = golden_of(timeouts[0]);
    paper_line(
        "leases detect the injected silent deaths",
        "(extension; expiry -> requeue -> rejoin)",
        &format!(
            "{} expiries, {} requeues, {} rejoins, {} lost",
            g.lease_expiries, g.requeued, g.lease_rejoins, g.lease_lost
        ),
        g.lease_expiries > 0 && g.requeued > 0 && g.lease_rejoins > 0,
    );

    // Verdict 3 — fault cost is visible but the system still closes its
    // books: faulted mean JCT is no better than the fault-free baseline,
    // and every admitted job is accounted for (completed, drained, shed,
    // or lost to the lease budget).
    let accounted = |r: &ServeReport| {
        r.counters.admitted == r.completed + r.counters.drained + r.counters.shed + r.lease_lost
    };
    paper_line(
        "fault JCT overhead is non-negative and fully accounted",
        "(extension; lease requeue pays, conservation holds)",
        &format!(
            "mean JCT {:.0} s faulted vs {:.0} s fault-free",
            g.mean_jct_secs, baseline.mean_jct_secs
        ),
        g.mean_jct_secs >= baseline.mean_jct_secs
            && goldens
                .iter()
                .all(|r| r.counters.conserved() && accounted(r)),
    );

    // Machine-readable summary for CI and the benchmark history.
    // recover_ms is wall-clock and lands only here, never on stdout.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"crash_sweep\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"horizon_secs\": {horizon_secs},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"baseline_mean_jct_secs\": {:.3},",
        baseline.mean_jct_secs
    );
    let _ = writeln!(
        json,
        "  \"golden_mean_jct_secs\": {:.3},",
        golden_of(timeouts[0]).mean_jct_secs
    );
    let _ = writeln!(json, "  \"all_identical\": {},", identical == cells.len());
    json.push_str("  \"cells\": [\n");
    let n_cells = cells.len();
    for (k, (cell, (jct, note))) in cells.iter().zip(&results).enumerate() {
        let f = parse_note(note);
        let _ = writeln!(
            json,
            "    {{\"crash_epoch\": {}, \"lease_timeout_secs\": {}, \
             \"crashed\": {}, \"identical\": {}, \
             \"replayed\": {}, \"resumed_secs\": {:.1}, \
             \"recover_ms\": {:.3}, \"mean_jct_secs\": {jct:.3}}}{}",
            cell.crash_epoch,
            cell.timeout_secs,
            f.crashed,
            f.identical,
            f.replayed,
            f.resumed_secs,
            f.recover_ms,
            if k + 1 < n_cells { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    write_record("BENCH_recovery.json", &json, smoke);
}
