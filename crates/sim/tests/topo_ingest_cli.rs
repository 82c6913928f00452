//! End-to-end tests of the `topo_ingest` binary: the malformed-input
//! contract (exit 2, offending line number in the message) and the
//! happy-path JSON the scale-smoke CI job asserts on.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_topo_ingest"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("topo_ingest_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn malformed_edge_list_exits_2_with_line_number() {
    let path = tmp("bad.edges");
    // Line 3 has a non-numeric capacity.
    std::fs::write(&path, "a b 100 5\nb c 100 5\nc d oops 5\n").unwrap();
    let out = bin().args(["--edge-list", path.to_str().unwrap()]).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "malformed input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "stderr must name the offending line: {stderr}");
}

#[test]
fn self_loop_edge_exits_2_with_line_number() {
    let path = tmp("loop.edges");
    std::fs::write(&path, "a b 100 5\nb b 100 5\n").unwrap();
    let out = bin().args(["--edge-list", path.to_str().unwrap()]).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr must name the offending line: {stderr}");
}

#[test]
fn unknown_flag_exits_2() {
    let out = bin().arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}

#[test]
fn synthetic_run_emits_parseable_json_with_full_success() {
    let json_path = tmp("out.json");
    let out = bin()
        .args([
            "--synthetic",
            "ba",
            "--nodes",
            "120",
            "--tests",
            "24",
            "--seeds",
            "42,43",
            "--leaf",
            "32",
            "--output",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&json_path).unwrap();
    std::fs::remove_file(&json_path).ok();
    // Hand-rolled emitter, hand-rolled check: the fields the CI assertions
    // read must be present, and BA is connected by construction so the
    // engine's fallback guarantee pins success_rate at exactly 1.
    for key in ["\"config\"", "\"results\"", "\"summary\"", "\"success_rate\"", "\"stretch\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("\"success_rate\": 1,"), "connected BA must answer every query: {json}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BarabasiAlbert: success_rate="), "summary line missing: {stderr}");
}

#[test]
fn emitted_edge_list_round_trips_through_the_parser() {
    let edges = tmp("roundtrip.edges");
    let emit = bin()
        .args([
            "--synthetic",
            "grid",
            "--nodes",
            "64",
            "--tests",
            "0",
            "--emit-edge-list",
            edges.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(emit.status.success(), "stderr: {}", String::from_utf8_lossy(&emit.stderr));
    // Re-ingest what the generator wrote: the scale-smoke job's shape.
    let out = bin()
        .args(["--edge-list", edges.to_str().unwrap(), "--tests", "16", "--seeds", "7"])
        .output()
        .unwrap();
    std::fs::remove_file(&edges).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"label\": \"RealWorld\""),
        "re-ingested file must be labeled RealWorld: {stdout}"
    );
    assert!(stdout.contains("\"success_rate\": 1,"), "grid is connected: {stdout}");
}
