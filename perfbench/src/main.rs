//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <campaign|reach|stub-fleet> --seed N --seconds S --trace <0|1> [--size full|smoke]
//! ```
//!
//! Runs fresh-process repetitions of the workload until `S` seconds of
//! timed work are done, prints every metric with its unit, median,
//! quartiles and sample count, writes the samples (and, traced, the spans)
//! under the build directory, and ends with one JSON result line. See
//! `README.md` next to this package.

mod check;
mod procfs;
mod stats;
mod trace;
mod workload;

use serde_json::{json, Value};
use stats::summarize;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Size, Workload, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <campaign|reach|stub-fleet> --seed N --seconds S --trace <0|1> [--size full|smoke]";

/// End-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput", "units/s"),
    ("cpu_per_unit_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Parsed command line of the benchmark and of one repetition.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if v.is_nan() || v <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                let v = value()?;
                size = Size::parse(v).ok_or(format!("unknown size {v}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        size,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `perfbench rep [--traced] ...` is one repetition in a fresh process,
    // spawned by the benchmark itself.
    if argv.first().map(String::as_str) == Some("rep") {
        let traced = argv.get(1).map(String::as_str) == Some("--traced");
        let rest = &argv[if traced { 2 } else { 1 }..];
        return match parse_args(rest) {
            Ok(a) => {
                let out = if traced {
                    workload::run_traced(a.workload, a.seed, a.size)
                } else {
                    workload::run_untraced(a.workload, a.seed, a.size)
                };
                println!("{}", serde_json::to_string(&out).expect("JSON serialises"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench rep: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            println!(
                "{}",
                serde_json::to_string(&result).expect("JSON serialises")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one repetition in a fresh child process and parse its report.
fn repetition(args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep");
    if traced {
        cmd.arg("--traced");
    }
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--size", args.size.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd.output().map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("repetition report: {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("repetition report lacks {key}"))
}

/// Host facts recorded with every result.
fn host_facts(args: &Args) -> Value {
    let rustc = Command::new("rustc")
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let config = args.workload.config(args.seed, args.size);
    json!({
        "nproc": workload::shards(),
        "rustc": rustc,
        "commit": git_commit().unwrap_or_else(|| "unknown".into()),
        "seed": args.seed,
        "shards": config.effective_shards(),
        "workload": args.workload.name(),
        "size": args.size.name(),
        "scale": {
            "world_scale": config.scale,
            "epochs": config.epochs,
            "full_sweep": config.full_sweep,
            "reach_stride": config.reach_stride,
            "sim_clients": config.sim_clients,
        },
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// (benchmark checkouts without git history have none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Where result and span files go: next to the build, inside the
/// checkout (`<target dir>/perfbench`).
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("executable outside a target directory")?;
    let dir = target.join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_json(name: &str, value: &Value) -> Result<PathBuf, String> {
    let path = out_dir()?.join(name);
    let text = serde_json::to_string_pretty(value).expect("JSON serialises");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Repetition totals the result line reports.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, rep: &Value) {
        let units = num(rep, "units") as u64;
        self.attempted += units;
        if rep.get("ok").and_then(Value::as_bool) != Some(true) {
            self.failed += units;
            let detail = rep.get("detail").and_then(Value::as_str).unwrap_or("");
            eprintln!("perfbench: output check failed: {detail}");
        }
    }
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

/// Print one metric's line and return its median.
fn report_line(name: &str, unit: &str, samples: &[f64]) -> f64 {
    let s = summarize(samples);
    println!(
        "  {name:<40} {:>16.6} {unit:<7} q1 {:.6}  q3 {:.6}  n={}",
        s.median, s.q1, s.q3, s.n
    );
    s.median
}

fn bench(args: &Args) -> Result<Value, String> {
    let host = host_facts(args);
    println!(
        "perfbench host {}",
        serde_json::to_string(&host).expect("JSON serialises")
    );
    let mut tally = Tally::default();
    let mut reps = Vec::new();
    let mut traced = Vec::new();
    let mut measured = 0.0;
    while reps.is_empty() || measured < args.seconds {
        let rep = repetition(args, false)?;
        tally.add(&rep);
        measured += num(&rep, "wall_s");
        if args.trace {
            let t = repetition(args, true)?;
            tally.add(&t);
            measured += num(&t, "leg_s");
            traced.push(t);
        }
        reps.push(rep);
    }
    println!(
        "perfbench {} seed={} size={} trace={} repetitions={} unit=\"{}\"",
        args.workload.name(),
        args.seed,
        args.size.name(),
        u8::from(args.trace),
        reps.len(),
        args.workload.unit()
    );

    let metrics = if args.trace {
        per_layer(args, &reps, &traced)?
    } else {
        end_to_end(&reps)
    };
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<40} {failed_frac:>16.6} ratio   ({} of {} units failed)",
        "failed_frac", tally.failed, tally.attempted
    );
    let path = write_json(
        &format!(
            "{}-{}-seed{}-trace{}.json",
            args.workload.name(),
            args.size.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &json!({
            "host": host,
            "repetitions": reps,
            "traced": traced,
            "failed_frac": failed_frac,
            "metrics": metrics,
        }),
    )?;
    println!("perfbench results written to {}", path.display());
    Ok(json!({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
}

/// Medians of the untraced repetitions.
fn end_to_end(reps: &[Value]) -> Value {
    let per_rep = |f: &dyn Fn(&Value) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.get("setup_s")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .to_vec()
        })
        .filter_map(|v| v.as_f64())
        .collect();
    let samples: [Vec<f64>; 4] = [
        per_rep(&|r| num(r, "units") / num(r, "wall_s")),
        per_rep(&|r| num(r, "cpu_s") * 1e6 / num(r, "units")),
        per_rep(&|r| num(r, "peak_rss_kib") / 1024.0),
        setup,
    ];
    let mut out = Vec::new();
    for ((name, unit), samples) in END_TO_END.iter().zip(samples.iter()) {
        let median = report_line(name, unit, samples);
        out.push((name.to_string(), metric(median, unit)));
    }
    Value::Object(out)
}

/// Medians of the traced repetitions' layer metrics, plus the ones that
/// compare each traced repetition with its untraced twin.
fn per_layer(args: &Args, reps: &[Value], traced: &[Value]) -> Result<Value, String> {
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let samples: Vec<f64> = reps
            .iter()
            .zip(traced)
            .map(|(rep, t)| {
                let wall = num(rep, "wall_s");
                let render = num(rep, "render_s");
                let uncovered = wall - num(t, "stages_s") - render;
                match name {
                    "core.render_s" => render,
                    "bench.trace_overhead" => (num(t, "leg_s") + render) / wall,
                    "bench.uncovered_s" => uncovered,
                    "bench.uncovered_share" => uncovered / wall,
                    _ => t
                        .get("layers")
                        .and_then(|l| l.get(name))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                }
            })
            .collect();
        let median = report_line(name, unit, &samples);
        out.push((name.to_string(), metric(median, unit)));
    }
    let spans: Vec<Value> = traced
        .iter()
        .map(|t| t.get("spans").cloned().unwrap_or(Value::Null))
        .collect();
    let path = write_json(
        &format!(
            "trace-{}-{}-seed{}.json",
            args.workload.name(),
            args.size.name(),
            args.seed
        ),
        &json!({ "repetitions": spans }),
    )?;
    println!("perfbench spans written to {}", path.display());
    Ok(Value::Object(out))
}
