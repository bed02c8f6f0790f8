//! Extension experiment: fault-injection sweep across every scheduler.
//!
//! Generalizes the old GPU-failure table into a full fault sweep: four
//! *nested* intensity levels (each level's fault plan is a superset of the
//! previous one's) combining transient and permanent GPU failures,
//! straggler windows, network degradation, and checkpoint-store faults.
//! All five offline schemes plus online Hare run every level; because the
//! plans are nested, weighted JCT must be monotone non-improving as
//! intensity rises — the sweep prints a verdict line checking exactly
//! that, and reports which scheduler is most robust (best wJCT under
//! the harshest level, plus delta-based views of the same data).
//!
//! Smoke mode for CI: `--seeds 1 --small` (12 jobs, same structure).
//!
//! Pass `--journal PATH` to make the sweep resumable: every completed
//! (scheme, level, seed) cell is recorded durably, and a restarted run
//! replays journaled cells instead of re-simulating them. Because every
//! cell is deterministic, a run killed mid-sweep and restarted with the
//! same journal produces byte-identical final output — CI kills a smoke
//! run with `timeout` and asserts exactly that.

use hare_baselines::{build_simulation, run_scheme_faulted, HareOnline, RunOptions, Scheme};
use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_experiments::{journaled_cells, parse_args, testbed_workload, Journal, Table};
use hare_sim::{
    FaultPlan, GpuFault, NetworkFault, SimReport, SimWorkload, StorageFault, StorageFaultKind,
    StragglerWindow,
};
use hare_workload::{ProfileDb, TraceConfig};

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn d(secs: u64) -> SimDuration {
    SimDuration::from_secs(secs)
}

/// The four nested intensity levels. Each extends the previous plan, so a
/// higher level strictly dominates a lower one in injected adversity.
fn levels() -> Vec<(&'static str, FaultPlan)> {
    let mut plans = Vec::new();
    let l0 = FaultPlan::default();
    plans.push(("L0 none", l0.clone()));

    // Two design rules keep the levels honest. First, capacity loss is
    // the dominant axis: transient delay alone can *help* a saturated
    // non-preemptive queue scheduler (later admission means a
    // better-informed ordering), so each level removes real service
    // capacity on top of the previous one. Second, fault windows cover
    // the whole horizon, not just the opening minutes: a scheduler that
    // drains the queue quickly outruns the later windows, one that grinds
    // for hours keeps getting hit — exposure time is part of robustness.

    // L1: a long transient V100 outage plus early and late stragglers.
    let mut l1 = l0;
    l1.gpu_faults.push(GpuFault {
        gpu: 0,
        at: t(300),
        recover_after: Some(d(3_600)),
    });
    l1.stragglers.push(StragglerWindow {
        gpu: 2,
        from: t(120),
        until: t(900),
        slowdown: 2.0,
    });
    l1.stragglers.push(StragglerWindow {
        gpu: 5,
        from: t(3_000),
        until: t(9_000),
        slowdown: 2.0,
    });
    plans.push(("L1 transient", l1.clone()));

    // L2: + a permanent V100 loss and backbone degradation windows.
    let mut l2 = l1;
    l2.gpu_faults.push(GpuFault {
        gpu: 1,
        at: t(600),
        recover_after: None,
    });
    l2.network_faults.push(NetworkFault {
        machine: None,
        from: t(200),
        until: t(1_400),
        factor: 0.4,
    });
    l2.network_faults.push(NetworkFault {
        machine: None,
        from: t(4_000),
        until: t(7_000),
        factor: 0.5,
    });
    plans.push(("L2 +permanent+net", l2.clone()));

    // L3: + a second permanent loss, another transient outage, harsher
    // stragglers, and checkpoint-store faults.
    let mut l3 = l2;
    l3.gpu_faults.push(GpuFault {
        gpu: 4,
        at: t(1_000),
        recover_after: None,
    });
    l3.gpu_faults.push(GpuFault {
        gpu: 3,
        at: t(900),
        recover_after: Some(d(600)),
    });
    // Late capacity loss: a T4 dies deep into the horizon. A scheduler
    // that has already drained its queue never feels it; one still
    // grinding loses a server for the whole tail.
    l3.gpu_faults.push(GpuFault {
        gpu: 9,
        at: t(7_000),
        recover_after: None,
    });
    l3.stragglers.push(StragglerWindow {
        gpu: 8,
        from: t(0),
        until: t(1_800),
        slowdown: 4.0,
    });
    l3.stragglers.push(StragglerWindow {
        gpu: 6,
        from: t(5_000),
        until: t(9_000),
        slowdown: 3.0,
    });
    l3.storage_faults.push(StorageFault {
        from: t(60),
        until: t(180),
        kind: StorageFaultKind::Outage,
    });
    l3.storage_faults.push(StorageFault {
        from: t(1_500),
        until: t(2_400),
        kind: StorageFaultKind::Slowdown(2.0),
    });
    plans.push(("L3 harsh", l3));
    plans
}

/// Percentage degradation over `base`, guarding the zero/negative base
/// (no division blow-ups in degenerate smoke configurations).
fn pct(base: f64, x: f64) -> String {
    if base <= 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (x / base - 1.0) * 100.0)
}

/// The per-scheme fault-accounting line printed under "L3 fault
/// accounting". Journaled verbatim as the cell note so a resumed sweep
/// reprints it byte-for-byte without re-simulating.
fn fault_line(name: &str, report: &SimReport) -> String {
    let f = &report.faults;
    format!(
        "  {name:<12} failures={} recoveries={} reexec={} lost={:.0}s \
         straggler_delay={:.0}s storage_stall={:.0}s fetched={} dropped={} accepted={}",
        f.gpu_failures,
        f.gpu_recoveries,
        f.reexecuted_tasks,
        f.lost_work.as_secs_f64(),
        f.straggler_delay.as_secs_f64(),
        f.storage_stall.as_secs_f64(),
        report.storage_fetched,
        f.dropped_gradients,
        f.gradients_accepted,
    )
}

fn online_report(w: &SimWorkload, opts: RunOptions, plan: &FaultPlan) -> SimReport {
    // Online Hare shares the builder with the five suite schemes (Hare's
    // switch runtime) so the comparison is apples-to-apples.
    build_simulation(Scheme::Hare, w, opts, plan)
        .run(&mut HareOnline::new())
        .expect("simulation failed")
}

fn build_workload(seed: u64, small: bool) -> SimWorkload {
    if small {
        let db = ProfileDb::new(seed);
        let trace = TraceConfig {
            n_jobs: 12,
            seed,
            ..TraceConfig::default()
        }
        .generate();
        SimWorkload::build(Cluster::testbed15(), trace, &db)
    } else {
        testbed_workload(seed)
    }
}

fn main() {
    let (seeds, _csv, extra) = parse_args();
    let small = extra.iter().any(|a| a == "--small");
    // One workload per seed; every (scheme, level) cell below is the mean
    // wJCT across seeds. Single-seed runs are perturbation-sensitive: a
    // fault can reshuffle a saturated queue-based scheduler into a luckier
    // admission order, so the monotonicity claim is about the mean.
    let workloads: Vec<SimWorkload> = seeds.iter().map(|&s| build_workload(s, small)).collect();

    // scheme -> mean wJCT per level, in level order.
    let levels = levels();
    let names: Vec<String> = Scheme::ALL
        .iter()
        .map(|s| s.name().to_string())
        .chain(std::iter::once("Hare_Online".to_string()))
        .collect();
    let mut wjct: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut last_line: Vec<Option<String>> = vec![None; names.len()];

    let mut header: Vec<&str> = vec!["scheme"];
    let labels: Vec<String> = levels
        .iter()
        .flat_map(|(l, _)| [l.to_string(), "degr".to_string()])
        .collect();
    header.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(&header);

    // Every (scheme, level, seed) cell is an independent simulation: run
    // them all on one work-stealing pool. Each finished cell is journaled
    // immediately, so a kill mid-sweep still leaves a resumable journal;
    // the table is assembled afterwards from the order-stable result
    // vector, so stdout is byte-identical to a serial run.
    let (n_levels, n_seeds) = (levels.len(), seeds.len());
    let cells: Vec<(usize, usize, usize)> = (0..names.len())
        .flat_map(|s| (0..n_levels).flat_map(move |l| (0..n_seeds).map(move |d| (s, l, d))))
        .collect();
    let results = journaled_cells(
        &extra,
        &cells,
        |&(s_idx, l_idx, seed_idx)| Journal::key(&names[s_idx], levels[l_idx].0, seeds[seed_idx]),
        |&(s_idx, l_idx, seed_idx)| {
            let opts = RunOptions {
                seed: seeds[seed_idx],
                ..RunOptions::default()
            };
            let plan = &levels[l_idx].1;
            let report = if s_idx < Scheme::ALL.len() {
                run_scheme_faulted(Scheme::ALL[s_idx], &workloads[seed_idx], opts, plan)
            } else {
                online_report(&workloads[seed_idx], opts, plan)
            };
            (report.weighted_jct, fault_line(&names[s_idx], &report))
        },
    );

    for (s_idx, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for l_idx in 0..levels.len() {
            let mut sum = 0.0;
            for seed_idx in 0..seeds.len() {
                let cell = (s_idx * levels.len() + l_idx) * seeds.len() + seed_idx;
                let (cell_wjct, line) = &results[cell];
                sum += cell_wjct;
                last_line[s_idx] = Some(line.clone());
            }
            let mean = sum / seeds.len() as f64;
            let base = wjct[s_idx].first().copied().unwrap_or(mean);
            row.push(format!("{mean:.0}"));
            row.push(if wjct[s_idx].is_empty() {
                "—".into()
            } else {
                pct(base, mean)
            });
            wjct[s_idx].push(mean);
        }
        table.row(row);
    }
    table.print(&format!(
        "Extension — fault sweep, nested intensity levels ({} jobs, {} seed(s))",
        workloads[0].problem.jobs.len(),
        seeds.len()
    ));

    // Fault accounting at the harshest level (one line per scheme, last seed).
    println!("\nL3 fault accounting (last seed):");
    for line in &last_line {
        println!("{}", line.as_deref().expect("ran"));
    }

    // Monotonicity verdict: nested plans must never *improve* wJCT.
    // Saturated non-preemptive queue schedulers are perturbation lotteries
    // — a fault that delays one admission can reshuffle the whole order,
    // and on a bad baseline the reshuffle sometimes lands luckier (probes
    // show a single straggler window halving Gavel_FIFO's makespan). The
    // seed-mean damps this; a 1% tolerance absorbs the residue.
    let mut monotone = true;
    for (name, series) in names.iter().zip(&wjct) {
        for pair in series.windows(2) {
            if pair[1] < pair[0] * 0.99 {
                println!(
                    "\nWARNING: {name} improved from {:.0} to {:.0} as faults intensified",
                    pair[0], pair[1]
                );
                monotone = false;
            }
        }
    }
    // Robustness headline: who delivers the best wJCT *under* the
    // harshest faults? Delta-based measures (relative or absolute
    // degradation from one's own healthy run) structurally reward a bad
    // baseline — a non-preemptive queue scheduler absorbs fault delay
    // into queue slack it already pays for at L0, so being 50-70% worse
    // when healthy makes its "degradation" look small while its faulted
    // wJCT stays the worst on the board. The deltas are still printed
    // below so that effect is visible rather than hidden.
    let last = levels.len() - 1;
    let best = names
        .iter()
        .zip(&wjct)
        .min_by(|a, b| a.1[last].total_cmp(&b.1[last]))
        .expect("schemes ran");
    println!(
        "\nverdict: wJCT monotone non-improving across levels: {}",
        if monotone { "yes" } else { "NO" }
    );
    println!(
        "most robust scheduler (best wJCT under the harshest faults): {} ({:.0} at L3, {} over its own healthy run)",
        best.0, best.1[last],
        pct(best.1[0], best.1[last])
    );
    let least_added = names
        .iter()
        .zip(&wjct)
        .min_by(|a, b| (a.1[last] - a.1[0]).total_cmp(&(b.1[last] - b.1[0])))
        .expect("schemes ran");
    if least_added.0 == best.0 {
        println!(
            "least wJCT added L0 -> L3: also {} (+{:.0})",
            least_added.0,
            least_added.1[last] - least_added.1[0],
        );
    } else {
        println!(
            "least wJCT added L0 -> L3: {} (+{:.0}; queue slack absorbs fault delay — its L3 wJCT is still {:.0}, {:+.0}% vs {})",
            least_added.0,
            least_added.1[last] - least_added.1[0],
            least_added.1[last],
            (least_added.1[last] / best.1[last] - 1.0) * 100.0,
            best.0,
        );
    }
    // The value of replanning: the static Hare plan vs the online variant.
    let offline_added = wjct[0][last] - wjct[0][0];
    let online_added = wjct[names.len() - 1][last] - wjct[names.len() - 1][0];
    if online_added > 0.0 {
        println!(
            "replanning under faults: static Hare plan adds {:.0} wJCT L0 -> L3, online Hare adds {:.0} ({:.1}x less)",
            offline_added,
            online_added,
            offline_added / online_added,
        );
    }
    println!("\nall jobs complete in every configuration; work lost to failures is");
    println!("re-executed (never silently free) and late gradients are dropped by");
    println!("the relaxed scale-fixed quorum rather than double-counted.");

    // `--trace PATH`: rerun online Hare at the harshest level with full
    // observability and write a Chrome trace-event JSON — failures,
    // preemptions, recoveries and replans all show as instants/spans.
    if let Some(i) = extra.iter().position(|a| a == "--trace") {
        let path = extra.get(i + 1).expect("--trace requires a PATH argument");
        let sink = std::sync::Arc::new(hare_sim::ChromeTraceSink::new());
        let (_, plan) = &levels[levels.len() - 1];
        let traced = build_simulation(
            Scheme::Hare,
            &workloads[0],
            RunOptions {
                seed: seeds[0],
                ..RunOptions::default()
            },
            plan,
        )
        .with_trace(sink.clone())
        .run(&mut HareOnline::new().with_trace(sink.clone()))
        .expect("simulation failed");
        std::fs::write(path, sink.to_chrome_json()).expect("write Chrome trace");
        println!(
            "\nwrote Chrome trace of {} under L3 faults ({} events) to {path}",
            traced.scheme,
            sink.len()
        );
    }
}
