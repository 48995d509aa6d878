//! End-to-end tests of the `arlo` CLI binary, driven as a subprocess.

use std::process::Command;

fn arlo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arlo"))
}

fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn arlo");
    assert!(
        out.status.success(),
        "arlo failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn help_prints_usage() {
    let text = stdout_of(arlo().arg("help"));
    assert!(text.contains("USAGE"));
    assert!(text.contains("gen-trace"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = arlo().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flags_fail_cleanly() {
    let out = arlo()
        .args(["simulate", "--scheme", "arlo"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --model"));
}

#[test]
fn unknown_flags_fail_and_name_the_flag() {
    // A retired flag: the connection plane is no longer selectable.
    let out = arlo()
        .args(["serve", "--front-door", "epoll"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--front-door"), "{stderr}");

    // A misspelled optional flag on an otherwise complete command, which
    // would run to completion if the typo were ignored.
    let out = arlo()
        .args([
            "simulate",
            "--scheme",
            "arlo",
            "--model",
            "bert-base",
            "--gpus",
            "4",
            "--rate",
            "100",
            "--secs",
            "1",
            "--slo",
            "100",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--slo"), "{stderr}");
}

#[test]
fn profile_prints_the_staircase() {
    let text = stdout_of(arlo().args(["profile", "--model", "bert-base"]));
    assert!(text.contains("staircase step 64 tokens"));
    assert!(text.contains("8 runtimes"));
    // The full-length runtime's capacity under the default 150 ms SLO.
    assert!(text.contains("512"));
}

#[test]
fn gen_analyze_simulate_roundtrip() {
    let dir = std::env::temp_dir().join(format!("arlo-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace_path = dir.join("trace.txt");
    let csv_path = dir.join("run.csv");

    // gen-trace → file
    let text = stdout_of(arlo().args([
        "gen-trace",
        "--rate",
        "300",
        "--secs",
        "5",
        "--seed",
        "9",
        "--out",
        trace_path.to_str().expect("utf8 path"),
    ]));
    assert!(text.contains("wrote"));

    // analyze the file
    let text = stdout_of(arlo().args(["analyze", "--trace", trace_path.to_str().unwrap()]));
    assert!(text.contains("mean rate"));
    assert!(text.contains("lengths"));

    // simulate from the file with CSV export
    let text = stdout_of(arlo().args([
        "simulate",
        "--scheme",
        "arlo",
        "--model",
        "bert-base",
        "--gpus",
        "4",
        "--trace",
        trace_path.to_str().unwrap(),
        "--csv",
        csv_path.to_str().unwrap(),
    ]));
    assert!(text.contains("mean"));
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    let lines = csv.lines().count();
    assert!(lines > 1000, "expected ~1500 request rows, got {lines}");
    assert!(csv.starts_with("id,length,arrival_ns"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_lists_all_schemes() {
    let text = stdout_of(arlo().args([
        "compare",
        "--model",
        "bert-base",
        "--gpus",
        "4",
        "--rate",
        "200",
        "--secs",
        "3",
    ]));
    for scheme in ["Arlo", "ST", "DT", "INFaaS"] {
        assert!(text.contains(scheme), "missing {scheme} in:\n{text}");
    }
}

#[test]
fn plan_shows_per_runtime_allocation() {
    let text = stdout_of(arlo().args([
        "plan",
        "--model",
        "bert-large",
        "--gpus",
        "8",
        "--rate",
        "300",
        "--secs",
        "5",
    ]));
    assert!(text.contains("allocation plan"));
    assert!(text.contains("max_len"));
    // Eight runtime rows.
    assert!(
        text.lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count()
            >= 8
    );
}

#[test]
fn deterministic_across_invocations() {
    let run = || {
        stdout_of(arlo().args([
            "simulate",
            "--scheme",
            "st",
            "--model",
            "bert-base",
            "--gpus",
            "2",
            "--rate",
            "100",
            "--secs",
            "3",
            "--seed",
            "4",
        ]))
    };
    assert_eq!(run(), run());
}
