//! End-to-end tests of the `hare` binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn hare(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hare"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_without_args() {
    let (stdout, _, ok) = hare(&[]);
    assert!(ok);
    assert!(stdout.contains("commands:"));
    assert!(stdout.contains("compare"));
}

#[test]
fn unknown_command_fails_with_help() {
    let (_, stderr, ok) = hare(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn profile_prints_all_models() {
    let (stdout, _, ok) = hare(&["profile"]);
    assert!(ok);
    for model in ["VGG19", "GraphSAGE", "Bert_base"] {
        assert!(stdout.contains(model), "missing {model} in:\n{stdout}");
    }
}

#[test]
fn switch_reports_three_protocols() {
    let (stdout, _, ok) = hare(&["switch", "--from", "graphsage", "--to", "resnet50"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Default"));
    assert!(stdout.contains("PipeSwitch"));
    assert!(stdout.contains("Hare"));
}

#[test]
fn switch_rejects_unknown_model() {
    let (_, stderr, ok) = hare(&["switch", "--from", "gpt9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

#[test]
fn export_then_compare_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hare-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("trace.csv");
    let csv_str = csv.to_str().unwrap();

    let (stdout, _, ok) = hare(&["export", "--jobs", "6", "--seed", "9", "--out", csv_str]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote 6 jobs"));

    let (stdout, stderr, ok) = hare(&["compare", "--input", csv_str, "--cluster", "mid:8"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Hare"));
    assert!(stdout.contains("Sched_Allox"));
    assert!(stdout.contains("6 jobs"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_trace_emits_valid_chrome_json() {
    let dir = std::env::temp_dir().join(format!("hare-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("trace.json");
    let json_str = json.to_str().unwrap();

    let (stdout, stderr, ok) = hare(&[
        "compare",
        "--jobs",
        "6",
        "--seed",
        "3",
        "--cluster",
        "mid:6",
        "--trace",
        json_str,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote Chrome trace"), "{stdout}");

    let text = std::fs::read_to_string(&json).unwrap();
    let value = serde_json::from_str(&text).expect("trace must be valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    // Task spans from the simulator and phase spans from the solver must
    // both be present — the trace covers the whole pipeline.
    assert!(
        names.iter().any(|n| n.starts_with("train ")),
        "no task spans in {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("replan ")),
        "no solver replan spans in {names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_prints_per_gpu_sequences() {
    let (stdout, _, ok) = hare(&["schedule", "--jobs", "4", "--cluster", "low:4"]);
    assert!(ok);
    assert!(stdout.contains("Algorithm 1:"));
    assert!(stdout.contains("gpu0 (V100)"));
    assert!(stdout.contains("gpu3"));
}

#[test]
fn bad_flags_produce_errors() {
    let (_, stderr, ok) = hare(&["compare", "--jobs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs"));
    let (_, stderr, ok) = hare(&["compare", "--cluster", "ultra:4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown heterogeneity"));
}

#[test]
fn bad_cluster_and_bandwidth_flags_exit_1_without_panicking() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["schedule", "--cluster", "high:3"],
            "--cluster high:3: needs at least one GPU per kind (4)",
        ),
        (
            &["schedule", "--cluster", "low:0"],
            "--cluster low:0: needs at least one GPU per kind (1)",
        ),
        (
            &["compare", "--cluster", "mid:1"],
            "--cluster mid:1: needs at least one GPU per kind (2)",
        ),
        (
            &["schedule", "--bandwidth", "nan"],
            "--bandwidth must be a positive finite Gbps, got NaN",
        ),
        (
            &["shard", "--bandwidth", "inf"],
            "--bandwidth must be a positive finite Gbps, got inf",
        ),
        (
            &["schedule", "--bandwidth", "1e-12"],
            "--bandwidth 0.000000000001 Gbps rounds to 0 bytes/s",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hare"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {message}").as_str()),
            "{args:?}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_serve_lease_and_load_flags_exit_1_without_panicking() {
    let cases = [
        (
            "serve --horizon 30 --lease-timeout 5 --heartbeat 10",
            "lease timeout must be at least one heartbeat",
        ),
        (
            "serve --horizon 30 --lease-timeout 60 --heartbeat 0",
            "lease heartbeat must be positive",
        ),
        ("serve --load 1e308 --horizon 30", "--load 1e308 offers"),
    ];
    for (args, message) in cases {
        // Polled rather than waited on: a load whose arrival gaps round to
        // zero would otherwise never return.
        let mut child = Command::new(env!("CARGO_BIN_EXE_hare"))
            .args(args.split_whitespace())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let give_up = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().expect("child status") {
                break status;
            }
            if Instant::now() > give_up {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?}: still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut stderr)
            .expect("stderr is UTF-8");
        assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn jobs_wider_than_the_cluster_or_cell_exit_1_for_gang_schemes() {
    let dir = std::env::temp_dir().join(format!("hare-cli-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, scale: u32| {
        let path = dir.join(name);
        let csv = format!(
            "job,model,batch_size,rounds,sync_scale,batches_per_task,weight,arrival_us\n\
             0,DeepSpeech,8,4,1,61,4,0\n\
             1,GraphSAGE,16,3,{scale},47,1,971597\n"
        );
        std::fs::write(&path, csv).unwrap();
        path.to_str().unwrap().to_string()
    };
    let wider_than_cluster = write("wide20.csv", 20);
    let wider_than_cell = write("wide10.csv", 10);
    let cases: [(&[&str], &str); 2] = [
        (
            &["compare", "--input", &wider_than_cluster],
            "job J1 has sync_scale 20 but the cluster has 15 GPUs; the gang schemes \
             start a job only on that many GPUs at once",
        ),
        (
            &["shard", "--input", &wider_than_cell, "--scheme", "srtf"],
            "job J1 has sync_scale 10 but its cell 1 has 7 GPUs; SRTF \
             starts a job only on that many GPUs at once",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hare"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {message}").as_str()),
            "{args:?}"
        );
        assert_eq!(stderr.matches("error:").count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // Hare runs a wide job's round in turns on fewer GPUs.
    let (stdout, stderr, ok) = hare(&["shard", "--input", &wider_than_cell, "--scheme", "hare"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Hare: weighted JCT"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_prints_the_largest_cell_share_next_to_the_fair_share() {
    let (stdout, stderr, ok) = hare(&["shard", "--jobs", "12", "--cells", "3"]);
    assert!(ok, "stderr: {stderr}");
    // The per-cell table's second column is the jobs routed to the cell.
    let jobs: Vec<usize> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("cell "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(jobs.len(), 3, "{stdout}");
    assert_eq!(jobs.iter().sum::<usize>(), 12, "{stdout}");
    let share = *jobs.iter().max().unwrap() as f64 / 12.0;
    let line = format!("largest cell share {share:.3} (fair 1/3 = 0.333)");
    assert!(
        stdout.lines().any(|l| l == line),
        "missing {line:?} in:\n{stdout}"
    );
}

#[test]
fn unknown_flags_exit_1_with_one_error_line_before_any_work() {
    let cases: [(&[&str], &str); 3] = [
        (&["schedule", "--jobz", "3"], "--jobz"),
        (
            &["serve", "--snapshot-every", "10", "--horizon", "30"],
            "--snapshot-every",
        ),
        (&["serve", "--smoke"], "--smoke"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hare"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no work starts");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(
            errors,
            [format!("error: unknown flag {flag} for `hare {}`", args[0])],
            "{args:?}"
        );
        assert!(
            stderr.contains("commands:"),
            "a usage error shows the usage"
        );
    }
}

#[test]
fn a_runtime_failure_prints_one_error_line_and_no_usage() {
    let dir = std::env::temp_dir().join(format!("hare-cli-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("serve.wal");
    let args = [
        "serve",
        "--horizon",
        "600",
        "--wal",
        wal.to_str().unwrap(),
        "--crash-at",
        "5",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_hare"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with("error: injected scheduler crash"),
        "{stderr}"
    );
    assert!(!stderr.contains("commands:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
