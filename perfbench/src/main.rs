//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_plan|sim_compare|serve_wal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (input generation, fixtures) runs in timed batches, one before
//! the timed region and one after each pass; `setup_s` is the median batch
//! mean. The timed region replays the same inputs in passes while the next
//! pass is expected to end within `--seconds`; end-to-end metrics are
//! medians over passes.
//! Output checks run on the first pass, outside the timed region, and
//! every pass must repeat the first pass's deterministic counters.
//!
//! With `--trace 1` passes alternate traced and untraced: traced passes
//! record spans around every call into a layer's public functions and
//! yield the per-layer metrics (self times and counts); the untraced ones
//! give the tracing overhead. The spans are written to
//! `.bench_out/spans-<workload>-seed<n>.json`.
//!
//! Human-readable lines go first; the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 1 when an output check fails, 2 on bad arguments.

mod batch;
mod compare;
mod serve;
mod spans;
mod workload;
mod wrap;

use spans::{Ctx, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{PassOut, Workload};

/// Where run artefacts (WAL files, span files) go, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";
/// Each set-up batch repeats set-up until this many seconds have gone by:
/// a set-up takes micro- to milliseconds, and a longer window averages out
/// the host's sub-second speed swings as a multi-second pass does.
const SETUP_BATCH_SECS: f64 = 0.25;

/// End-to-end metrics of every workload (untraced runs).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("mean_jct_s", "sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). A layer a workload never enters
/// reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("shard.route_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.max_cell_jobs_frac", "fraction"),
    ("shard.cell_s_max", "s"),
    ("shard.cell_s_p50", "s"),
    ("workload.build_s", "s"),
    ("solver.relax_s", "s"),
    ("solver.lower_bound_s", "s"),
    ("solver.work_units", "count"),
    ("core.schedule_s", "s"),
    ("core.list_schedule_s", "s"),
    ("core.plan_ms.exact", "ms"),
    ("core.plan_ms.relaxation", "ms"),
    ("core.plan_ms.stale-plan", "ms"),
    ("core.plan_ms.greedy", "ms"),
    ("core.rung_hits.exact", "count"),
    ("core.rung_hits.relaxation", "count"),
    ("core.rung_hits.stale-plan", "count"),
    ("core.rung_hits.greedy", "count"),
    ("core.plan_work", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.dispatch_s", "s"),
    ("sim.dispatch_calls", "count"),
    ("sim.engine_self_s", "s"),
    ("sim.replay_new_s", "s"),
    ("baselines.dispatch_s.Gavel_FIFO", "s"),
    ("baselines.dispatch_s.SRTF", "s"),
    ("baselines.dispatch_s.Sched_Homo", "s"),
    ("baselines.dispatch_s.Sched_Allox", "s"),
    ("memory.switches", "count"),
    ("memory.switch_sim_s", "sim_s"),
    ("serve.loop_self_s", "s"),
    ("recovery.recover_self_s", "s"),
    ("recovery.wal_overhead_s", "s"),
    ("recovery.replayed", "count"),
    ("recovery.wal_bytes", "bytes"),
    ("admission.admitted", "count"),
    ("admission.rejected", "count"),
    ("admission.shed", "count"),
    ("admission.queue_depth_max", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// Span names that are the benchmark's own glue rather than a layer.
const GLUE_SPANS: [&str; 1] = ["shard.cell"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 3] = ["batch_plan", "sim_compare", "serve_wal"];

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "batch_plan" => Box::new(batch::BatchPlan::setup(seed)),
        "sim_compare" => Box::new(compare::SimCompare::setup(seed)),
        "serve_wal" => Box::new(serve::ServeWal::setup(seed, OUT_DIR)),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// One set-up batch: the mean seconds per set-up, and the last fixture.
fn setup_batch(args: &Args) -> (f64, Box<dyn Workload>) {
    let t = Instant::now();
    let mut reps = 1u32;
    let mut fixture = setup(&args.workload, args.seed);
    while t.elapsed().as_secs_f64() < SETUP_BATCH_SECS {
        fixture = setup(&args.workload, args.seed);
        reps += 1;
    }
    (t.elapsed().as_secs_f64() / f64::from(reps), fixture)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-layer values of one traced pass.
fn layer_values(rec: &Recorder, ctx: &Ctx, out: &PassOut, wall: f64) -> BTreeMap<String, f64> {
    let selfs = rec.self_times();
    let rolls = rec.rollups();
    let probes = ctx.probes();
    let self_of = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    let probe = |k: &str| probes.get(k).copied().unwrap_or(0.0);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("shard.route_s", self_of("shard.route"));
    set("shard.merge_s", self_of("shard.run_with"));
    let cells = rec.durations("shard.cell");
    set(
        "shard.cell_s_max",
        cells.iter().copied().fold(0.0, f64::max),
    );
    set("shard.cell_s_p50", median(&cells));
    set("workload.build_s", rec.total("workload.build"));
    let schedule = rec.total("core.schedule");
    let (relax, bound) = (probe("solver.relax"), probe("solver.lower_bound"));
    set("solver.relax_s", relax);
    set("solver.lower_bound_s", bound);
    set("core.schedule_s", schedule);
    set(
        "core.list_schedule_s",
        if schedule > 0.0 {
            schedule - relax - bound
        } else {
            0.0
        },
    );
    set("sim.run_s", rec.total("sim.run"));
    set("sim.engine_self_s", self_of("sim.run"));
    set("sim.replay_new_s", rec.total("sim.replay_new"));
    let (mut dispatch, mut calls) = (0.0, 0u64);
    for (name, (secs, n)) in &rolls {
        if let Some(scheme) = name.strip_prefix("dispatch.") {
            dispatch += secs;
            calls += n;
            set(&format!("baselines.dispatch_s.{scheme}"), *secs);
        }
    }
    set("sim.dispatch_s", dispatch);
    set("sim.dispatch_calls", calls as f64);
    set("serve.loop_self_s", self_of("serve.run_with_wal"));
    set("recovery.recover_self_s", self_of("recovery.recover"));
    if probes.contains_key("serve.run") {
        set(
            "recovery.wal_overhead_s",
            rec.total("serve.run_with_wal") + rec.total("recovery.recover") - probe("serve.run"),
        );
    }
    let mut by_rung: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &out.plans {
        by_rung.entry(p.rung).or_default().push(p.ms);
    }
    for (rung, ms) in &by_rung {
        set(&format!("core.plan_ms.{rung}"), median(ms));
    }
    for (k, x) in &out.counts {
        set(k, *x as f64);
    }
    for (k, x) in &out.layer {
        set(k, *x);
    }
    let attributed: f64 = selfs
        .iter()
        .filter(|(k, _)| !GLUE_SPANS.contains(&k.as_str()))
        .map(|(_, s)| s)
        .sum::<f64>()
        + rolls.values().map(|(s, _)| s).sum::<f64>();
    set("trace.unattributed_s", wall - attributed);
    v
}

/// Order-sensitive fingerprint of the deterministic counters.
fn fingerprint(counts: &BTreeMap<String, u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in counts {
        for b in k.bytes().chain(v.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up runs in batches: one before the timed region and one after
    // every pass, so `setup_s` samples the whole run as `wall_s` does
    // (this host's speed drifts over seconds).
    let (secs, mut fixture) = setup_batch(&args);
    let mut setup_secs = vec![secs];

    // Timed region: passes while the next one is expected to end within
    // the budget. Traced runs alternate traced and untraced passes,
    // starting traced, and make at least one of each.
    let start = Instant::now();
    let mut pass_secs = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut outs: Vec<PassOut> = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut span_json = String::from("[");
    let mut failed = 0u64;
    let mut first_counts: Option<BTreeMap<String, u64>> = None;
    let mut pass = 0usize;
    loop {
        let traced = args.trace && pass.is_multiple_of(2);
        let rec = traced.then(Recorder::new);
        let ctx = Ctx::new(rec.as_ref());
        let t = Instant::now();
        let out = fixture.pass(&ctx, pass == 0);
        pass_secs.push(t.elapsed().as_secs_f64());
        let wall = pass_secs[pass] - ctx.excluded();
        let mut failures = out.failures.clone();
        match &first_counts {
            None => first_counts = Some(out.counts.clone()),
            Some(first) => {
                for (k, v) in &out.counts {
                    if let Some(f) = first.get(k) {
                        if f != v {
                            failures.push(format!("counter {k} changed: {f} then {v}"));
                        }
                    }
                }
            }
        }
        if !failures.is_empty() {
            failed += 1;
            for f in &failures {
                eprintln!("perfbench: check failed on pass {pass}: {f}");
            }
        }
        println!(
            "pass {pass}: {} wall {wall:.6} s",
            if traced { "traced  " } else { "untraced" }
        );
        if let Some(rec) = &rec {
            layers.push(layer_values(rec, &ctx, &out, wall));
            traced_walls.push(wall);
            rec.write_json(pass, &mut span_json);
        } else {
            walls.push(wall);
        }
        outs.push(out);
        pass += 1;
        setup_secs.push(setup_batch(&args).0);
        let next_end = start.elapsed().as_secs_f64() + median(&pass_secs);
        if next_end > args.seconds && (!args.trace || pass >= 2) {
            break;
        }
    }
    let attempted = pass as u64;
    let first = &outs[0];
    let counts = first_counts.unwrap_or_default();
    println!("counters (repeat exactly for a seed):");
    for (k, v) in &counts {
        println!("  {k} = {v}");
    }
    println!("counters fingerprint: {:016x}", fingerprint(&counts));

    let setup_s = median(&setup_secs);
    let wall_s = median(&walls);
    let rss = peak_rss_mb();
    let untraced: Vec<&PassOut> = outs
        .iter()
        .enumerate()
        .filter(|(i, _)| !args.trace || i % 2 == 1)
        .map(|(_, o)| o)
        .collect();
    let plan_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|o| o.plans.iter().map(|p| p.ms))
        .collect();
    let recover_s = median(&untraced.iter().map(|o| o.recover_s).collect::<Vec<_>>());

    // Every end-to-end metric the workload has, with its unit.
    println!("end-to-end ({} untraced passes):", walls.len());
    let show = |name: &str, value: f64, unit: &str| println!("  {name:<16} {value:>14.6} {unit}");
    show("setup_s", setup_s, "s");
    show("wall_s", wall_s, "s");
    show("jobs_per_s", first.completed as f64 / wall_s, "jobs/s");
    if first.events > 0 {
        show("events_per_s", first.events as f64 / wall_s, "events/s");
    }
    show("mean_jct_s", first.mean_jct_s, "sim_s");
    show("makespan_s", first.makespan_s, "sim_s");
    if !first.plans.is_empty() {
        println!("  decision samples {:>14}", plan_ms.len());
        show("decision_ms_p50", quantile(&plan_ms, 0.5), "ms");
        show("decision_ms_p99", quantile(&plan_ms, 0.99), "ms");
        show("decisions_per_s", first.plans.len() as f64 / wall_s, "1/s");
        show("recover_s", recover_s, "s");
    }
    show(
        "fail_frac",
        (first.offered - first.completed.min(first.offered)) as f64 / first.offered.max(1) as f64,
        "fraction",
    );
    show("peak_rss_mb", rss, "MB");

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let vals: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
            merged.insert(name.to_string(), median(&vals));
        }
        let overhead = median(&traced_walls) - wall_s;
        merged.insert("trace.overhead_s".into(), overhead);
        println!("per-layer ({} traced passes, medians):", layers.len());
        for (name, unit) in PER_LAYER {
            println!("  {name:<34} {:>16.6} {unit}", merged[name]);
        }
        span_json.push_str("\n]");
        let path = format!("{OUT_DIR}/spans-{}-seed{}.json", args.workload, args.seed);
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {span_json}}}\n",
            args.workload, args.seed
        );
        match std::fs::write(&path, body) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), merged[*n], *u))
            .collect()
    } else {
        let values = [
            setup_s,
            wall_s,
            first.completed as f64 / wall_s,
            first.mean_jct_s,
            rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect()
    };
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    drop(fixture);
    if !correct {
        std::process::exit(1);
    }
}
