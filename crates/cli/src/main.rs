//! `hare` — command-line interface to the Hare scheduler and simulator.
//!
//! ```text
//! hare compare  [--cluster testbed|low:N|mid:N|high:N] [--jobs N] [--seed S]
//!               [--bandwidth Gbps] [--mix cv=..,nlp=..,speech=..,rec=..]
//!               [--input FILE.csv] [--online] [--timeslice]
//!               [--trace FILE.json]          # Chrome trace of Hare_Online
//! hare schedule [same workload flags]      # print Hare's plan per GPU
//! hare export   [workload flags] --out FILE.csv     # write the trace CSV
//! hare profile                              # the Fig.-2 profile table
//! hare switch --from MODEL --to MODEL [--gpu KIND]   # switching costs
//! hare serve  [--load F] [--process poisson|bursty|diurnal] [--horizon S]
//!             [--scheduler ladder|srtf] [--unthrottled] [--pace-ms N]
//!             [--journal FILE] [--out FILE]             # continuous service
//!             [--wal FILE] [--recover] [--crash-at N]
//!             [--lease-timeout S] [--heartbeat S]       # crash tolerance
//! hare shard  [workload flags] [--cells N] [--scheme S] [--stream]
//!                                            # sharded datacenter run
//! ```

#![warn(clippy::unwrap_used)]

mod args;
mod serve;

use args::Options;
use hare_baselines::{run_all, HareOnline, RunOptions, Scheme, TimeSlice};
use hare_cluster::{GpuKind, SimDuration};
use hare_core::HareScheduler;
use hare_memory::{switch_time, PrevTask, SwitchPolicy, SwitchRequest};
use hare_sim::{ChromeTraceSink, SimWorkload, Simulation};
use hare_workload::{ModelKind, ProfileDb, TraceConfig};
use std::process::ExitCode;
use std::sync::Arc;

/// A command: what it runs and the flags it reads, space-separated.
type Command = (fn(&Options) -> Result<(), String>, &'static str);

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let Some(name) = opts.positional().first() else {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    };
    let (run, flags): Command = match name.as_str() {
        "compare" => (
            compare,
            "cluster bandwidth jobs seed mix input online timeslice trace",
        ),
        "schedule" => (schedule, "cluster bandwidth jobs seed mix input gantt"),
        "export" => (export, "jobs seed mix input out"),
        "profile" => (profile, ""),
        "switch" => (switching, "from to gpu"),
        "serve" => (serve::serve, serve::FLAGS),
        "shard" => (
            shard,
            "cluster bandwidth jobs seed mix input cells scheme stream",
        ),
        other => return usage_error(&format!("unknown command {other:?}")),
    };
    if let Some(flag) = opts.unknown_flag(flags) {
        return usage_error(&format!("unknown flag --{flag} for `hare {name}`"));
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
hare — DML job scheduling on heterogeneous GPUs (HPDC '22 reproduction)

commands:
  compare    run all five schemes (plus --online / --timeslice) on a workload
  schedule   print Hare's Algorithm-1 plan for a workload (--gantt to draw it)
  export     write the generated workload trace as CSV (--out FILE)
  profile    per-model, per-GPU batch-time profile table (Fig. 2)
  switch     task-switching cost between two models (--from, --to, --gpu)
  serve      continuous-service mode: open arrivals, admission control,
             brownout under overload, graceful SIGTERM/SIGINT drain
  shard      datacenter-scale sharded run: partition the cluster into
             cells, gateway-route jobs, simulate each cell independently

workload flags (compare/schedule/shard; export takes the last four):
  --cluster testbed|low:N|mid:N|high:N   (default testbed = 15 mixed GPUs)
  --bandwidth G   NIC speed in Gbps         (default 25)
  --jobs N        number of jobs            (default 20)
  --seed S        trace + noise seed        (default 1)
  --mix cv=F,nlp=F,speech=F,rec=F          (default 0.25 each)
  --input FILE    load jobs from a CSV trace instead of generating them

observability (compare):
  --trace FILE    write a Chrome trace-event JSON of an online-Hare run
                  (task/sync spans per GPU + solver phases; open it at
                  ui.perfetto.dev or chrome://tracing)

serve flags (plus --cluster, --bandwidth, --seed and --mix):
  --load F        offered load as a fraction of estimated capacity (0.8)
  --process P     poisson | bursty | diurnal                    (poisson)
  --horizon S     stop admitting after S simulated seconds        (3600)
  --scheduler S   ladder (anytime degradation ladder) | srtf    (ladder)
  --unthrottled   disable admission caps and brownout (baseline mode)
  --pace-ms N     wall-clock ms per decision epoch (live pacing; 0=off)
  --journal FILE  append the final cell durably; --replay-journal FILE
  --out FILE      write the JSON report to FILE instead of stdout

shard flags (plus the workload flags above):
  --cells N       number of machine-disjoint cells          (default 2)
  --scheme S      hare|gavel|srtf|homo|allox                (default hare)
  --stream        draw jobs from the open arrival stream (lazy, never a
                  materialized global trace) instead of the closed trace;
                  --jobs N is the stream length

serve crash tolerance:
  --wal FILE      write-ahead log every transition; group-committed per epoch,
                  compacted into a full snapshot once the records since the
                  last one outweigh it
  --recover       resume from --wal FILE after a crash; the recovered report
                  is byte-identical to an uninterrupted run
  --crash-at N    inject a scheduler crash at decision epoch N (needs --wal)
  --lease-timeout S    lease-based GPU liveness: expire a worker S s after
                  its last heartbeat, requeue its job with backoff
  --heartbeat S   worker heartbeat interval for leases              (10)
";

/// A malformed command line: the error, then the usage text.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{HELP}");
    ExitCode::FAILURE
}

fn trace(opts: &Options) -> Result<Vec<hare_workload::JobSpec>, String> {
    if opts.has("input") {
        let path = opts.get("input", "");
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        return hare_workload::trace_from_csv(&text);
    }
    let n_jobs: u32 = opts.num("jobs", 20)?;
    if n_jobs == 0 {
        return Err("--jobs must be positive".into());
    }
    let seed: u64 = opts.num("seed", 1)?;
    Ok(TraceConfig {
        n_jobs,
        mix: opts.mix()?,
        seed,
        ..TraceConfig::default()
    }
    .generate())
}

fn workload(opts: &Options) -> Result<SimWorkload, String> {
    let cluster = opts.cluster()?;
    let seed: u64 = opts.num("seed", 1)?;
    let db = ProfileDb::new(seed);
    Ok(SimWorkload::build(cluster, trace(opts)?, &db))
}

fn export(opts: &Options) -> Result<(), String> {
    let jobs = trace(opts)?;
    let csv = hare_workload::trace_to_csv(&jobs);
    let out = opts.get("out", "");
    if out.is_empty() {
        print!("{csv}");
    } else {
        std::fs::write(out, csv).map_err(|e| format!("cannot write {out:?}: {e}"))?;
        println!("wrote {} jobs to {out}", jobs.len());
    }
    Ok(())
}

fn compare(opts: &Options) -> Result<(), String> {
    let w = workload(opts)?;
    let seed: u64 = opts.num("seed", 1)?;
    let n_gpus = w.cluster.gpu_count();
    if let Some(job) = w
        .specs
        .iter()
        .find(|j| !Scheme::ALL.iter().all(|s| s.fits(j.sync_scale, n_gpus)))
    {
        return Err(format!(
            "job {} has sync_scale {} but the cluster has {n_gpus} GPUs; the gang schemes \
             start a job only on that many GPUs at once",
            job.id, job.sync_scale
        ));
    }
    println!(
        "{} jobs / {} tasks on {} GPUs ({} machines)\n",
        w.problem.jobs.len(),
        w.problem.n_tasks(),
        w.cluster.gpu_count(),
        w.cluster.machine_count()
    );
    let mut reports = run_all(
        &w,
        RunOptions {
            seed,
            ..RunOptions::default()
        },
    );
    if opts.has("online") {
        let online = Simulation::new(&w)
            .with_seed(seed)
            .run(&mut HareOnline::new())
            .expect("simulation");
        reports.insert(1, online);
    }
    if opts.has("timeslice") {
        // Time slicing ships with its natural fast-switching runtime (it
        // switches constantly), like Hare.
        let ts = Simulation::new(&w)
            .with_seed(seed)
            .run(&mut TimeSlice::new())
            .expect("simulation");
        reports.push(ts);
    }
    let hare = reports[0].weighted_jct;
    println!(
        "{:<12} {:>13} {:>9} {:>11} {:>10} {:>9}",
        "scheme", "weighted JCT", "vs Hare", "mean JCT", "makespan", "util"
    );
    for r in &reports {
        println!(
            "{:<12} {:>13.0} {:>8.2}x {:>10.0}s {:>10} {:>8.0}%",
            r.scheme,
            r.weighted_jct,
            r.weighted_jct / hare,
            r.mean_jct(),
            r.makespan.to_string(),
            r.mean_utilization() * 100.0
        );
    }
    if opts.has("trace") {
        let path = opts.get("trace", "");
        if path.is_empty() {
            return Err("--trace needs an output path".into());
        }
        write_chrome_trace(&w, seed, path)?;
    }
    Ok(())
}

/// Run one traced online-Hare pass and write the Chrome trace-event JSON.
/// A dedicated pass (rather than tracing the comparison runs above) keeps
/// the comparison itself on the zero-instrumentation fast path.
fn write_chrome_trace(w: &SimWorkload, seed: u64, path: &str) -> Result<(), String> {
    let sink = Arc::new(ChromeTraceSink::new());
    let report = Simulation::new(w)
        .with_seed(seed)
        .with_trace(sink.clone())
        .run(&mut HareOnline::new().with_trace(sink.clone()))
        .expect("simulation");
    std::fs::write(path, sink.to_chrome_json())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!(
        "\nwrote Chrome trace of {} ({} events) to {path}",
        report.scheme,
        sink.len()
    );
    Ok(())
}

/// `hare shard`: partition the cluster into cells, route the workload
/// through the gateway, simulate every cell independently, and print the
/// per-cell accounting plus the merged global report.
fn shard(opts: &Options) -> Result<(), String> {
    use hare_baselines::run_scheme_sharded;
    use hare_sim::{GatewayConfig, ShardedTrace};

    let cluster = opts.cluster()?;
    let n_cells: usize = opts.num("cells", 2)?;
    if n_cells == 0 {
        return Err("--cells must be positive".into());
    }
    if n_cells > cluster.machine_count() {
        return Err(format!(
            "--cells {n_cells} exceeds the cluster's {} machines",
            cluster.machine_count()
        ));
    }
    let scheme = match opts.get("scheme", "hare") {
        s if s.eq_ignore_ascii_case("hare") => Scheme::Hare,
        s if s.eq_ignore_ascii_case("gavel") => Scheme::GavelFifo,
        s if s.eq_ignore_ascii_case("srtf") => Scheme::Srtf,
        s if s.eq_ignore_ascii_case("homo") => Scheme::SchedHomo,
        s if s.eq_ignore_ascii_case("allox") => Scheme::SchedAllox,
        other => return Err(format!("unknown scheme {other:?}")),
    };
    let seed: u64 = opts.num("seed", 1)?;
    let gw = GatewayConfig::default();
    let sharded = if opts.has("stream") {
        let n_jobs: u64 = opts.num("jobs", 20u64)?;
        if n_jobs == 0 {
            return Err("--jobs must be positive".into());
        }
        let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
        let arrivals = hare_workload::OpenArrivalConfig {
            seed,
            mix: opts.mix()?,
            ..hare_workload::OpenArrivalConfig::default()
        }
        .calibrated(&counts);
        let stream = hare_workload::StreamedTrace::new(&arrivals, n_jobs).map(|a| a.spec);
        ShardedTrace::route(&cluster, n_cells, &gw, stream)
    } else {
        ShardedTrace::route(&cluster, n_cells, &gw, trace(opts)?)
    };
    for job in 0..sharded.n_jobs() {
        let (cell, local) = sharded.route_of(job);
        let n_gpus = sharded.partition().cell(cell).cluster().gpu_count();
        let scale = sharded.cell_specs()[cell][local].sync_scale;
        if !scheme.fits(scale, n_gpus) {
            return Err(format!(
                "job {} has sync_scale {scale} but its cell {cell} has {n_gpus} GPUs; {} \
                 starts a job only on that many GPUs at once",
                hare_workload::JobId(job as u32),
                scheme.name()
            ));
        }
    }
    println!(
        "{} jobs routed over {} cells ({} GPUs, {} machines)\n",
        sharded.n_jobs(),
        n_cells,
        cluster.gpu_count(),
        cluster.machine_count()
    );
    let db = ProfileDb::new(seed);
    let merged = run_scheme_sharded(
        scheme,
        &sharded,
        &db,
        RunOptions {
            seed,
            ..RunOptions::default()
        },
    );
    println!(
        "{:<6} {:>6} {:>6} {:>10} {:>12}",
        "cell", "jobs", "gpus", "events", "makespan"
    );
    for c in &merged.cells {
        println!(
            "{:<6} {:>6} {:>6} {:>10} {:>12}",
            c.cell,
            c.jobs,
            c.gpus,
            c.events,
            c.makespan.to_string()
        );
    }
    println!(
        "\nlargest cell share {:.3} (fair 1/{n_cells} = {:.3})",
        merged.largest_cell_share(),
        1.0 / n_cells as f64
    );
    let r = &merged.report;
    println!(
        "\n{}: weighted JCT {:.0}, mean JCT {:.0}s, makespan {}, {} events total",
        r.scheme,
        r.weighted_jct,
        r.mean_jct(),
        r.makespan,
        merged.events_total
    );
    Ok(())
}

fn schedule(opts: &Options) -> Result<(), String> {
    let w = workload(opts)?;
    let out = HareScheduler::default().schedule(&w.problem);
    println!(
        "Algorithm 1: {} tasks, planned weighted completion {:.1}s, lower bound {:.1}s\n",
        w.problem.n_tasks(),
        out.schedule.weighted_completion(&w.problem),
        out.lower_bound
    );
    for (g, seq) in out.schedule.gpu_sequences(&w.problem).iter().enumerate() {
        let gpu = &w.cluster.gpus()[g];
        let busy = out.schedule.busy_time(&w.problem)[g];
        println!(
            "gpu{g} ({}): {} tasks, {} busy — first 8: {:?}",
            gpu.kind,
            seq.len(),
            busy,
            &seq[..seq.len().min(8)]
        );
    }
    if opts.has("gantt") {
        println!(
            "\n{}",
            hare_core::render_gantt(&w.problem, &out.schedule, 100)
        );
    }
    Ok(())
}

fn profile(_: &Options) -> Result<(), String> {
    let db = ProfileDb::new(1);
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}  (ms per default batch)",
        "model", "V100", "T4", "M60", "K80"
    );
    for model in ModelKind::WORKLOAD {
        let t = |g| {
            db.profile(model, g, model.spec().batch_size)
                .batch_time
                .as_millis_f64()
        };
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            model.to_string(),
            t(GpuKind::V100),
            t(GpuKind::T4),
            t(GpuKind::M60),
            t(GpuKind::K80)
        );
    }
    Ok(())
}

fn switching(opts: &Options) -> Result<(), String> {
    let parse_model = |name: &str| {
        ModelKind::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown model {name:?}"))
    };
    let from = parse_model(opts.get("from", "GraphSAGE"))?;
    let to = parse_model(opts.get("to", "ResNet50"))?;
    let gpu = match opts.get("gpu", "V100") {
        s if s.eq_ignore_ascii_case("v100") => GpuKind::V100,
        s if s.eq_ignore_ascii_case("t4") => GpuKind::T4,
        s if s.eq_ignore_ascii_case("k80") => GpuKind::K80,
        s if s.eq_ignore_ascii_case("m60") => GpuKind::M60,
        other => return Err(format!("unknown GPU kind {other:?}")),
    };
    println!("switch {from} -> {to} on {gpu}:");
    for policy in SwitchPolicy::ALL {
        let b = switch_time(
            policy,
            &SwitchRequest {
                gpu,
                prev: Some(PrevTask {
                    model: from,
                    step_time: SimDuration::from_millis_f64(from.batch_ms(gpu)),
                }),
                next: to,
                cache_hit: false,
            },
        );
        println!("  {:<11} {}", policy.name(), b.total());
    }
    Ok(())
}
