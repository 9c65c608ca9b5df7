//! Smoke tests for the benchmark harness: the two binaries must run end to
//! end on tiny inputs without panicking and the `figure1` JSON export must
//! be well-formed.

use std::process::Command;

#[test]
fn figure1_runs_at_tiny_scale_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("numadag_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("figure1.json");

    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--json"])
        .arg(&json_path)
        .output()
        .expect("figure1 must spawn");
    assert!(
        out.status.success(),
        "figure1 exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Geometric mean"), "missing geomean row");
    assert!(stdout.contains("RGP+LAS"), "missing the paper's policy");

    let json = std::fs::read_to_string(&json_path).expect("--json must write the file");
    for key in [
        "\"machine\"",
        "\"backend\"",
        "\"baseline\"",
        "\"cells\"",
        "\"aggregates\"",
        "\"speedup_vs_baseline\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}: {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure1_accepts_registry_policy_labels() {
    // Policies come from the CLI through the PolicyKind registry, including
    // a parameterised RGP window.
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--policies", "dfifo,rgp-las:w=256"])
        .output()
        .expect("figure1 must spawn");
    assert!(
        out.status.success(),
        "figure1 exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("RGP+LAS:w=256"),
        "windowed policy column missing"
    );

    // A bogus policy must fail fast with the registry's error message.
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--policies", "bogus"])
        .output()
        .expect("figure1 must spawn");
    assert!(!out.status.success(), "bogus policy must be rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn malformed_arguments_exit_2() {
    // Unknown scales, unknown flags and malformed integers must be hard
    // errors (exit code 2) in both binaries, never silent fallbacks.
    let figure1_cases: &[&[&str]] = &[
        &["--scale", "bogus"],
        &["--scale"],
        &["--jobs", "abc"],
        &["--jobs"],
        &["--reps", "0"],
        &["--reps", "-3"],
        &["--seed", "1.5"],
        &["--no-such-flag"],
        &["--policies", ""],
        &["--policies", "rgp-las:anchor=deps"],
        &["--trace-dir"],
    ];
    for args in figure1_cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
            .args(*args)
            .output()
            .expect("figure1 must spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "figure1 {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "figure1 {args:?} must explain the error"
        );
    }

    let ablation_cases: &[&[&str]] = &[
        &["--jobs", "x"],
        &["--jobs"],
        &["no-such-study"],
        &["window", "sockets"],
        &["trace", "window"],
        &["trace", "--scale", "bogus"],
        &["trace", "--scale"],
        &["window", "--scale", "small"],
        &["bench-diff", "only-one.json"],
        &["bench-diff", "a.json", "b.json", "c.json"],
        &["bench-diff", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["hotpath-diff", "a.json", "b.json"],
    ];
    for args in ablation_cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
            .args(*args)
            .output()
            .expect("ablation must spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "ablation {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn sharded_sweep_writes_identical_json_and_reports_progress() {
    let dir = std::env::temp_dir().join(format!("numadag_jobs_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let serial_path = dir.join("serial.json");
    let sharded_path = dir.join("sharded.json");

    let serial = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--jobs", "1", "--json"])
        .arg(&serial_path)
        .output()
        .expect("figure1 must spawn");
    assert!(serial.status.success());

    let sharded = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--jobs", "4", "--json"])
        .arg(&sharded_path)
        .output()
        .expect("figure1 must spawn");
    assert!(sharded.status.success());

    // Sharding must not change a single byte of the measurement JSON.
    assert_eq!(
        std::fs::read(&serial_path).unwrap(),
        std::fs::read(&sharded_path).unwrap(),
        "jobs=4 and jobs=1 must serialize identically"
    );

    // Live per-cell progress goes to stderr: one line per cell (8 apps × 4
    // policies), none of it polluting stdout.
    let progress = String::from_utf8_lossy(&sharded.stderr);
    assert_eq!(
        progress.lines().filter(|l| l.contains("/ rep 0:")).count(),
        32,
        "expected one progress line per cell: {progress}"
    );
    assert!(progress.contains("[ 32/32]"), "{progress}");

    // bench-diff agrees the reports are identical (exit 0)…
    let same = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .arg("bench-diff")
        .args([&serial_path, &sharded_path])
        .output()
        .expect("ablation must spawn");
    assert_eq!(same.status.code(), Some(0), "identical reports must exit 0");
    assert!(String::from_utf8_lossy(&same.stdout).contains("measurement-identical"));

    // …and flags a seed change as a difference (exit 1) with per-cell deltas.
    let other_path = dir.join("other-seed.json");
    let other = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--seed", "99", "--json"])
        .arg(&other_path)
        .output()
        .expect("figure1 must spawn");
    assert!(other.status.success());
    let differs = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .arg("bench-diff")
        .args([&serial_path, &other_path])
        .output()
        .expect("ablation must spawn");
    assert_eq!(
        differs.status.code(),
        Some(1),
        "differing reports must exit 1"
    );
    let stdout = String::from_utf8_lossy(&differs.stdout);
    assert!(stdout.contains("seed: 15819134 -> 99"), "{stdout}");
    assert!(stdout.contains("makespan_ns"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `figure1 --backend proc` re-execs itself as its workers: the pool's
/// report is the committed Tiny baseline, its counters line shows both
/// workers alive and no cell redispatched, and at `--jobs 1` stdout names
/// one lane count, the two lanes that ran (one per worker).
#[test]
fn figure1_on_the_proc_backend_writes_the_tiny_baseline() {
    let dir = std::env::temp_dir().join(format!("numadag_proc_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("proc.json");
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args([
            "--scale",
            "tiny",
            "--backend",
            "proc",
            "--jobs",
            "1",
            "--json",
        ])
        .arg(&json_path)
        .output()
        .expect("figure1 must spawn");
    assert!(
        out.status.success(),
        "figure1 exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = include_str!("../../../BENCH_figure1_tiny.json");
    let json = std::fs::read_to_string(&json_path).expect("--json must write the file");
    assert!(json == baseline, "the proc report moved the Tiny baseline");
    // The pool's counters are the `## Proc backend pool` line of stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    for counters in ["workers_spawned=2 workers_alive=2", "redispatches=0"] {
        assert!(stdout.contains(counters), "missing {counters}: {stdout}");
    }
    assert!(stdout.contains("(2 lanes)"), "{stdout}");
    assert_eq!(stdout.matches("lanes").count(), 1, "{stdout}");
    assert!(!stdout.contains("jobs"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_timing_export_carries_wall_time_accounting() {
    let dir = std::env::temp_dir().join(format!("numadag_timing_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("timing.json");
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "tiny", "--jobs", "2", "--json-timing"])
        .arg(&path)
        .output()
        .expect("figure1 must spawn");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).unwrap();
    for key in [
        "\"total_wall_ns\"",
        "\"build_wall_ns\"",
        "\"spec_builds\": 8",
    ] {
        assert!(json.contains(key), "timing export missing {key}");
    }
    // The accounting alone: no report around it.
    let timing = serde_json::from_str(&json).expect("the timing export is JSON");
    for member in ["cells", "aggregates", "timing"] {
        assert!(
            timing.get(member).is_none(),
            "{member} in the timing export"
        );
    }
    // One entry per Tiny cell in each per-cell column.
    for column in [
        "cell_wall_ns",
        "cell_partition_windows",
        "cell_partition_wall_ns",
    ] {
        let entries = timing.get(column).and_then(|v| v.as_array()).map(Vec::len);
        assert_eq!(entries, Some(32), "{column}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure1_trace_dir_writes_round_trippable_traces() {
    let dir = std::env::temp_dir().join(format!("numadag_trace_smoke_{}", std::process::id()));
    let trace_dir = dir.join("traces");

    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args([
            "--scale",
            "tiny",
            "--policies",
            "rgp-las",
            "--jobs",
            "2",
            "--trace-dir",
        ])
        .arg(&trace_dir)
        .output()
        .expect("figure1 must spawn");
    assert!(
        out.status.success(),
        "figure1 exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wrote 16 execution traces"),
        "missing trace-dir summary: {stdout}"
    );

    // One file per cell (8 apps × rgp-las + LAS baseline), each parseable.
    let files: Vec<_> = std::fs::read_dir(&trace_dir)
        .expect("trace dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 16, "{files:?}");
    let sample = trace_dir.join("NStream_Tiny_RGP-LAS_rep0.trace.json");
    let text = std::fs::read_to_string(&sample).expect("sample trace exists");
    for key in ["\"events\"", "\"assign\"", "\"traffic\"", "\"makespan_ns\""] {
        assert!(text.contains(key), "trace file missing {key}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ablation_trace_study_prints_divergence_reports() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["trace", "--scale", "tiny"])
        .output()
        .expect("ablation must spawn");
    assert!(
        out.status.success(),
        "ablation exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ABL-TRACE"), "missing study header");
    for app in ["Integral histogram", "Symm. mat. inv.", "NStream"] {
        assert!(stdout.contains(app), "missing app {app}: {stdout}");
    }
    assert!(
        stdout.contains("loses the most time"),
        "missing ranked task report"
    );
    assert!(
        stdout.contains("critical path"),
        "missing critical-path comparison"
    );
}

#[test]
fn ablation_partitioner_study_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .arg("partitioner")
        .output()
        .expect("ablation must spawn");
    assert!(
        out.status.success(),
        "ablation exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ABL-PART"), "missing study header");
}

/// `ablation sockets --backend proc` spawns one worker pool and runs its
/// four machine sizes on it, each through an executor of its own config:
/// the `## Proc backend pool` line counts two workers spawned, both alive.
#[test]
fn ablation_runs_every_sweep_on_one_proc_pool() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["sockets", "--backend", "proc"])
        .output()
        .expect("ablation must spawn");
    assert!(
        out.status.success(),
        "ablation exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sockets in ["|       2 |", "|      16 |"] {
        assert!(stdout.contains(sockets), "missing row {sockets}: {stdout}");
    }
    let pool = stdout
        .split("## Proc backend pool")
        .nth(1)
        .unwrap_or_else(|| panic!("missing the pool line: {stdout}"));
    for counters in ["workers_spawned=2 workers_alive=2", "redispatches=0"] {
        assert!(pool.contains(counters), "missing {counters}: {pool}");
    }
}

/// `ablation propagation --backend proc`: the coordinator never partitions
/// a proc cell, so the cost section says so instead of printing a table of
/// zeros.
#[test]
fn ablation_propagation_on_proc_leaves_the_partitioning_cost_unmeasured() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["propagation", "--backend", "proc"])
        .output()
        .expect("ablation must spawn");
    assert!(
        out.status.success(),
        "ablation exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cost = stdout
        .split("## Partitioning cost per propagation mode")
        .nth(1)
        .unwrap_or_else(|| panic!("missing the cost section: {stdout}"));
    assert!(
        cost.contains("not measured on the coordinator"),
        "missing the note: {cost}"
    );
    assert!(!cost.contains("0.000"), "a zero cost row: {cost}");
}
