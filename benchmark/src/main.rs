//! `gossip-ledger`: the repo's benchmark. See `README.md` in this directory
//! for the metrics, the workloads and how to read the output; `run.sh` is
//! the command that builds and starts this.

mod episode;
mod inputs;
mod json;
mod layers;
mod measure;
mod run;
mod spec;
mod trace;

use run::{Options, Record, PINNED_SEED};
use serde::ser::Value;
use spec::{Spec, END_TO_END};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Everything the benchmark writes goes here (and nowhere else): run
/// records, traces, the ledger, and the Unix sockets of `uds-exchange`.
const OUT_DIR: &str = "benchmark/out";

/// Wall limit of one workload run. The cluster's own receive timeout is
/// 120 s and the driver's is 180 s: neither must be what ends a run.
const RUN_TIMEOUT: Duration = Duration::from_secs(100);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    calibrate: bool,
    manifest: bool,
    child: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--calibrate] [--manifest]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        calibrate: false,
        manifest: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")),
            "--seed" => {
                a.seed = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a positive number")),
                )
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                })
            }
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            "--child" => a.child = true,
            "--calibrate" => a.calibrate = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    a
}

fn find_spec(name: &str, smoke: bool) -> Spec {
    spec::workloads(smoke)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = spec::workloads(smoke).iter().map(|w| w.name).collect();
            usage(&format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ))
        })
}

fn write_json(path: &Path, v: &Value) {
    if let Err(e) = std::fs::write(path, json::pretty(v)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn record_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("run-{workload}-t{}.json", trace as u8))
}

/// `--child`: run the workload in this process, print its metrics and, as
/// the last line, the result.
fn child(args: &Args) -> ExitCode {
    let name = args
        .workload
        .as_deref()
        .unwrap_or_else(|| usage("--child needs --workload"));
    let spec = find_spec(name, args.smoke);
    let trace = args.trace.unwrap_or(false);
    let record: Record = run::run(
        &spec,
        Options {
            seed: args.seed,
            seconds: default_seconds(args),
            trace,
            smoke: args.smoke,
        },
    );
    record.print();
    write_json(&record_path(name, trace), &record.to_json());
    if let Some(t) = &record.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        if let Err(e) = std::fs::write(&path, json::compact(t)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", record.result_line());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a supervised run came to.
struct Outcome {
    ok: bool,
    stdout: String,
}

/// Runs one workload in a fresh child process, in a process group of its
/// own. A child still running at `RUN_TIMEOUT` counts as failed. However
/// the child ended, the whole group (it and any shard worker it left) is
/// killed and its socket files are removed before this returns.
fn supervise(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp).expect("create benchmark/out/tmp");
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The transport's sockets go to temp_dir(): keep them in the checkout.
        // Relative, because a socket path holds at most 108 bytes.
        .env("TMPDIR", &tmp)
        .env("RAYON_NUM_THREADS", "2")
        .stdout(Stdio::piped())
        .process_group(0);
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().expect("re-exec for the workload");
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = std::io::Read::read_to_string(&mut pipe, &mut out);
        out
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("wait for the workload") {
            Some(status) => break Some(status),
            None if started.elapsed() >= RUN_TIMEOUT => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        eprintln!("{workload}: still running after {RUN_TIMEOUT:?}; killing its process group");
    }
    // Also when the child ended by itself: had it died with workers alive,
    // they would hold the pipe's write end until their own receive timeout.
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{}", child.id())])
        .stderr(Stdio::null())
        .status();
    let _ = child.wait();
    let stdout = reader.join().unwrap_or_default();
    if let Ok(entries) = std::fs::read_dir(&tmp) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
    Outcome {
        ok: status.is_some_and(|s| s.success()),
        stdout,
    }
}

/// The metrics of a result line, by name.
fn result_metrics(stdout: &str) -> Option<Vec<(String, f64)>> {
    let line = stdout.lines().last()?;
    let Value::Object(top) = serde_json::from_str::<Value>(line).ok()? else {
        return None;
    };
    let Value::Object(metrics) = &top.iter().find(|(k, _)| k == "metrics")?.1 else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(m) = m else { return None };
            match m.iter().find(|(k, _)| k == "value")?.1 {
                Value::Float(f) => Some((name.clone(), f)),
                Value::Int(i) => Some((name.clone(), i as f64)),
                Value::UInt(u) => Some((name.clone(), u as f64)),
                _ => None,
            }
        })
        .collect()
}

fn selected(args: &Args) -> Vec<Spec> {
    match &args.workload {
        Some(name) => vec![find_spec(name, args.smoke)],
        None => spec::workloads(args.smoke),
    }
}

fn default_seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        0.5
    } else {
        spec::RUN_SECONDS as f64
    })
}

/// The full set: every selected workload, measured then traced, each in a
/// fresh child; writes the ledger.
fn full_set(args: &Args) -> ExitCode {
    let seconds = default_seconds(args);
    let mut all_ok = true;
    let mut runs = Vec::new();
    let mut pins = Vec::new();
    for w in selected(args) {
        for trace in [false, true] {
            let _ = std::fs::remove_file(record_path(w.name, trace));
            let out = supervise(w.name, args.seed, seconds, trace, args.smoke);
            print!("{}", out.stdout);
            all_ok &= out.ok;
            let record = std::fs::read_to_string(record_path(w.name, trace))
                .ok()
                .and_then(|t| serde_json::from_str::<Value>(&t).ok());
            match record {
                Some(Value::Object(fields)) => {
                    if let Some((_, p)) = fields.iter().find(|(k, _)| k == "pins") {
                        if !trace {
                            pins.push((w.name.to_string(), p.clone()));
                        }
                    }
                    runs.push(Value::Object(fields));
                }
                _ => {
                    // No record: the run hit its wall timeout or crashed.
                    all_ok = false;
                    runs.push(Value::Object(vec![
                        ("workload".into(), Value::Str(w.name.into())),
                        ("trace".into(), Value::Bool(trace)),
                        ("correct".into(), Value::Bool(false)),
                        ("attempted".into(), Value::UInt(1)),
                        ("failed".into(), Value::UInt(1)),
                    ]));
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ledger = Value::Object(vec![
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rayon_threads".into(), Value::UInt(2)),
        ("correct".into(), Value::Bool(all_ok)),
        ("runs".into(), Value::Array(runs)),
    ]);
    write_json(&Path::new(OUT_DIR).join("ledger.json"), &ledger);
    write_json(&Path::new(OUT_DIR).join("pins.json"), &Value::Object(pins));
    println!(
        "ledger: {OUT_DIR}/ledger.json, traces: {OUT_DIR}/trace-<workload>.json ({})",
        if all_ok {
            "all checks passed"
        } else {
            "FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measured runs in each of the two sets `--calibrate` makes per workload.
const CALIBRATE_RUNS: u64 = 10;

/// What the driver does to accept the benchmark, on this commit: two sets
/// of `CALIBRATE_RUNS` measured runs per workload, each run on another
/// seed; per end-to-end metric the spread of each set (interquartile
/// distance over the median) and the drift of the second median against
/// the first, both against the metric's bound.
fn calibrate(args: &Args) -> ExitCode {
    let seconds = default_seconds(args);
    let mut all_ok = true;
    println!("| workload | metric | bound | median 1 | median 2 | spread 1 | spread 2 | worse by | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    // The workloads the driver holds to the bounds, or the one asked for.
    let held = |w: &Spec| w.gated || args.workload.is_some();
    for w in selected(args).into_iter().filter(held) {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for set in 0..2 {
            let mut results = Vec::new();
            for i in 0..CALIBRATE_RUNS {
                let seed = args.seed + set * CALIBRATE_RUNS + i;
                let out = supervise(w.name, seed, seconds, false, args.smoke);
                match result_metrics(&out.stdout).filter(|_| out.ok) {
                    Some(m) => results.push(m),
                    None => {
                        all_ok = false;
                        eprintln!("{}: seed {seed} failed:\n{}", w.name, out.stdout);
                    }
                }
            }
            sets.push(results);
        }
        for e in &END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.iter().find(|(k, _)| k == e.name).map(|x| x.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (ma, mb) = (measure::median(&a), measure::median(&b));
            let worse = if e.better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (spread(&a), spread(&b));
            // The set-up time's spread is not held to its bound; its drift is.
            let steady = e.name == "setup_s" || sa.max(sb) <= e.bound;
            let ok = steady && worse <= e.bound;
            all_ok &= ok;
            println!(
                "| {} | {} | {:.2} | {:.4} | {:.4} | {:.3} | {:.3} | {:+.3} | {} |",
                w.name,
                e.name,
                e.bound,
                ma,
                mb,
                sa,
                sb,
                worse,
                if ok { "ok" } else { "OUT" }
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Distance between the first and third quartile over the median, with the
/// quartiles of Python's `statistics.quantiles(values, n=4)` (exclusive).
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    measure::sort(&mut v);
    let quartile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(0.75) - quartile(0.25)) / measure::median(&v)
}

fn main() -> ExitCode {
    // The process-mode engines re-exec this binary as their shard workers.
    gossip_shard::maybe_run_worker();
    gossip_cluster::maybe_run_cluster_shard();

    let args = parse_args();
    if args.manifest {
        print!("{}", json::pretty(&spec::manifest()));
        return ExitCode::SUCCESS;
    }
    if args.child {
        return child(&args);
    }
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    if args.calibrate {
        return calibrate(&args);
    }
    match (&args.workload, args.trace) {
        // The driver's form: one workload, one kind of run; the child's
        // output, result line last, is passed through.
        (Some(name), Some(trace)) => {
            find_spec(name, args.smoke);
            let out = supervise(name, args.seed, default_seconds(&args), trace, args.smoke);
            print!("{}", out.stdout);
            if out.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => full_set(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_uses_the_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((spread(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"n":{"value":3,"unit":"count"}}}"#;
        let got = result_metrics(&format!("noise\n{line}\n")).unwrap();
        assert_eq!(
            got,
            vec![("setup_s".to_string(), 0.25), ("n".to_string(), 3.0)]
        );
        assert!(result_metrics("not json").is_none());
    }
}
