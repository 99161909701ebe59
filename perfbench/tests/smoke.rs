//! Smoke run of every workload at the tiny size, untraced and traced: it
//! finishes, passes its output checks, and prints every metric that
//! `BENCHMARK.json` declares, with its unit.

use serde_json::Value;
use std::process::Command;

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(kind)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "2019",
            "--seconds",
            "0.001",
        ])
        .args(["--trace", trace, "--size", "smoke"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics");
    let kind = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(kind);
    let Value::Object(entries) = metrics else {
        panic!("metrics is an object")
    };
    assert_eq!(entries.len(), declared.len(), "{workload}: metric count");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite));
        let printed = stdout
            .lines()
            .any(|l| l.split_whitespace().next() == Some(name.as_str()));
        assert!(printed, "{workload}: {name} not printed");
    }
}

#[test]
fn campaign_smoke() {
    smoke("campaign", "0");
    smoke("campaign", "1");
}

#[test]
fn reach_smoke() {
    smoke("reach", "0");
    smoke("reach", "1");
}

#[test]
fn stub_fleet_smoke() {
    smoke("stub-fleet", "0");
    smoke("stub-fleet", "1");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "reach",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
