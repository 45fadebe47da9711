//! Integration tests for the `gps-repro` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gps-repro"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn generate_info_solve_pipeline() {
    let dir = std::env::temp_dir().join(format!("gps_repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let obs = dir.join("yyr1.obs");

    let out = bin()
        .args([
            "generate",
            "--station",
            "YYR1",
            "--epochs",
            "40",
            "--interval",
            "60",
            "--seed",
            "5",
            "--out",
        ])
        .arg(&obs)
        .output()
        .expect("generate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(obs.exists());

    let out = bin().arg("info").arg(&obs).output().expect("info runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("YYR1"), "{text}");
    assert!(text.contains("epochs  : 40"), "{text}");

    for algorithm in ["nr", "dlo", "dlg", "bancroft"] {
        let out = bin()
            .arg("solve")
            .arg(&obs)
            .args(["--algorithm", algorithm, "--satellites", "7"])
            .output()
            .expect("solve runs");
        assert!(
            out.status.success(),
            "{algorithm}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("position error"), "{algorithm}: {text}");
        assert!(text.contains("epochs solved"), "{algorithm}: {text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_unknown_station() {
    let out = bin()
        .args(["generate", "--station", "NOPE", "--out", "/tmp/never.obs"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown station"));
}

#[test]
fn solve_rejects_missing_file_and_bad_algorithm() {
    let out = bin()
        .args(["solve", "/definitely/not/there.obs"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let dir = std::env::temp_dir().join(format!("gps_repro_cli2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let obs = dir.join("srzn.obs");
    let gen = bin()
        .args(["generate", "--station", "SRZN", "--epochs", "3", "--out"])
        .arg(&obs)
        .output()
        .expect("generate runs");
    assert!(gen.status.success());
    let out = bin()
        .arg("solve")
        .arg(&obs)
        .args(["--algorithm", "magic"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn almanac_round_trips_through_yuma_parser() {
    let out = bin().arg("almanac").output().expect("almanac runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let constellation = gps_repro::orbits::yuma::parse(&text).expect("valid YUMA");
    assert_eq!(constellation.len(), 31);
}

#[test]
fn telemetry_out_captures_events_and_snapshot() {
    let dir = std::env::temp_dir().join(format!("gps_repro_cli_tel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.jsonl");

    let out = bin()
        .args([
            "experiment",
            "fig51",
            "--quick",
            "--seed",
            "7",
            "--telemetry-out",
        ])
        .arg(&path)
        .output()
        .expect("experiment runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The report itself still goes to stdout, untouched by telemetry.
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 5.1"));

    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    // Per-epoch spans from the runner (path nests under the experiment).
    assert!(
        text.lines()
            .any(|l| l.contains("\"target\":\"span\"") && l.contains("epoch")),
        "no epoch span events in {text:.2000}"
    );
    // Run-summary events carry the paper's rates.
    assert!(text.contains("\"theta_dlo_pct\""), "no run-summary events");
    // The final metrics snapshot includes the solver instrumentation.
    for metric in [
        "core.nr.iterations",
        "core.dlo.condition_number",
        "core.dlg.condition_number",
    ] {
        assert!(
            text.lines()
                .any(|l| l.contains("\"type\":\"histogram\"") && l.contains(metric)),
            "snapshot missing histogram {metric}"
        );
    }
    // Figure 5.1 runs the paper's DLG: the dense-Ψ GLS of eq. 4-21/4-26,
    // whose covariance assembly timer records only on the dense GlsPath
    // lanes (TELEMETRY.md) — so its presence shows the paper path ran.
    assert!(
        text.lines()
            .any(|l| l.contains("\"type\":\"histogram\"") && l.contains("core.dlg.cov_assembly_us")),
        "fig51 did not run the paper's dense-covariance DLG"
    );
    assert!(
        text.lines()
            .any(|l| l.contains("\"type\":\"counter\"") && l.contains("core.nr.solves")),
        "snapshot missing the NR solve counter"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_csv_format_and_flag_validation() {
    // --metrics-format without --telemetry-out is a usage error.
    let out = bin()
        .args(["almanac", "--metrics-format", "csv"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--telemetry-out"));

    // A telemetry flag with its value swallowed by the next flag is an
    // error, not a silent no-op.
    let out = bin()
        .args(["almanac", "--telemetry-out", "--log-level", "info"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));

    // A bad log level is rejected up front.
    let out = bin()
        .args(["almanac", "--log-level", "loud"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown log level"));

    // CSV telemetry starts with the event header row.
    let dir = std::env::temp_dir().join(format!("gps_repro_cli_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let obs = dir.join("srzn.obs");
    let csv = dir.join("run.csv");
    let out = bin()
        .args(["generate", "--station", "SRZN", "--epochs", "3", "--out"])
        .arg(&obs)
        .args(["--metrics-format", "csv", "--telemetry-out"])
        .arg(&csv)
        .output()
        .expect("generate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&csv).expect("csv telemetry written");
    assert!(
        text.starts_with("ts_us,level,target,message,fields"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_level_writes_human_events_to_stderr() {
    let out = bin()
        .args([
            "experiment",
            "table51",
            "--quick",
            "--seed",
            "3",
            "--log-level",
            "info",
        ])
        .output()
        .expect("experiment runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("sim.experiments] datasets generated"),
        "stderr missing the generation event: {err}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 5.1"));
}

#[test]
fn experiment_rejects_unknown_name() {
    let out = bin()
        .args(["experiment", "fig99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}
