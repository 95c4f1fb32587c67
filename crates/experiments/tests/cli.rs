//! End-to-end tests of the `dcrd-experiments` binary: argument handling,
//! figure execution, output files, and the `predict`/`run` subcommands.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dcrd-experiments"))
}

#[test]
fn help_succeeds_and_lists_figures() {
    let out = bin().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("fig2"));
    assert!(text.contains("ablation-ordering"));
    assert!(text.contains("predict"));
}

#[test]
fn chaos_smoke_reports_a_clean_audit() {
    let out = bin()
        .args(["chaos", "--quality", "smoke"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R-Tree"));
    assert!(stdout.contains("DCRD-fixed"));
    assert!(stdout.contains("invariant auditor: 0 violation(s)"));
}

#[test]
fn unknown_figure_fails() {
    let out = bin().arg("fig99").output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn missing_figure_fails() {
    let out = bin().output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn bad_quality_fails() {
    let out = bin()
        .args(["fig2", "--quality", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn fig2_smoke_writes_all_artifacts() {
    let dir = std::env::temp_dir().join(format!("dcrd-cli-test-{}", std::process::id()));
    let out = bin()
        .args(["fig2", "--quality", "smoke", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Delivery Ratio"));
    assert!(stdout.contains("DCRD"));
    for suffix in ["txt", "csv", "json"] {
        assert!(
            dir.join(format!("fig2.{suffix}")).exists(),
            "missing fig2.{suffix}"
        );
    }
    let json = std::fs::read_to_string(dir.join("fig2.json")).expect("readable");
    assert!(json.contains(r#""id": "fig2""#), "fig2.json: {json}");
    for metric in ["delivery", "qos", "traffic"] {
        let svg = dir.join(format!("fig2-{metric}.svg"));
        assert!(svg.exists(), "missing {}", svg.display());
        let content = std::fs::read_to_string(&svg).expect("readable");
        assert!(content.starts_with("<svg"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_reports_verdicts() {
    let out = bin()
        .args(["predict", "--nodes", "10", "--degree", "4", "--pf", "0.05"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict"));
    assert!(stdout.contains("subscriptions expected on time"));
}

#[test]
fn run_subcommand_prints_comparison() {
    let out = bin()
        .args([
            "run",
            "--nodes",
            "10",
            "--degree",
            "4",
            "--pf",
            "0.04",
            "--duration",
            "10",
            "--reps",
            "1",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["DCRD", "R-Tree", "D-Tree", "ORACLE", "Multipath"] {
        assert!(stdout.contains(name), "missing {name} in output");
    }
}

#[test]
fn run_subcommand_rejects_bad_flags() {
    let out = bin().args(["run", "--bogus", "1"]).output().expect("spawn");
    assert!(!out.status.success());
}
