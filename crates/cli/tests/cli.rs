//! End-to-end tests of the `hare` binary.

use std::process::Command;

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
