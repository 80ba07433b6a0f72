//! Golden outputs of the `gossip` binary: for each invocation, the exact
//! stdout, the first stderr line and the exit code. Any change to a flag's
//! parse, a default, an error message or a report line fails here.
//!
//! Every expected value is a literal. Regenerate one only when the output
//! is meant to change, by running the binary with the same arguments.

use std::process::Command;

/// Runs the `gossip` binary and returns `(stdout, first stderr line, exit code)`.
fn gossip(line: &str) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(line.split_whitespace())
        .output()
        .expect("run gossip binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr.lines().next().unwrap_or("").to_string(),
        out.status.code().expect("gossip exited by signal"),
    )
}

fn assert_ok(line: &str, stdout: &str) {
    assert_eq!(
        gossip(line),
        (stdout.to_string(), String::new(), 0),
        "{line}"
    );
}

fn assert_err(line: &str, first_stderr: &str) {
    assert_eq!(
        gossip(line),
        (String::new(), first_stderr.to_string(), 2),
        "{line}"
    );
}

#[test]
fn generate_prints_the_edge_list() {
    assert_ok(
        "generate --family cycle --n 6 --seed 1",
        "6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n",
    );
}

#[test]
fn run_prints_summary_and_trace() {
    assert_ok(
        "run --protocol push --family star --n 8 --seed 5 --trace",
        "process = push, rounds = 33, final edges = 28, rounds / n log² n = 0.9540\n\
         round,introducer,a,b\n\
         1,0,6,2\n4,0,2,1\n5,0,6,4\n5,2,1,6\n6,0,7,4\n7,0,4,1\n8,0,5,3\n8,6,2,4\n\
         9,0,3,4\n10,4,7,2\n11,2,1,7\n12,0,5,2\n13,0,3,1\n13,4,2,3\n16,1,6,7\n\
         16,2,5,7\n17,2,1,5\n19,0,5,4\n22,1,7,3\n27,1,6,3\n33,7,6,5\n",
    );
}

#[test]
fn run_under_churn_prints_membership_totals() {
    assert_ok(
        "run --protocol pull --family sparse --n 64 --seed 3 --churn 2",
        "process = pull, rounds = 263, final edges = 2016, rounds / n log² n = 0.2376\n\
         churn: bursts = 2, leaves = 8, joins = 8, edges removed = 58, bootstrap edges = 24\n",
    );
}

#[test]
fn trials_prints_statistics() {
    assert_ok(
        "trials --protocol pull --family cycle --n 12 --trials 4 --seed 9",
        "pull on cycle(n=12): trials = 4, mean = 35.5 ± 7.6, median = 35.5, min = 26, max = 45\n",
    );
}

#[test]
fn exact_prints_expected_rounds() {
    assert_ok(
        "exact --protocol hybrid --n 3 --edges 0-1,1-2",
        "exact E[rounds to fixed point] = 1.142857\n",
    );
}

#[test]
fn directed_prints_closure_rounds() {
    assert_ok(
        "directed --family cycle --n 8 --seed 2",
        "directed pull on cycle(n=8): rounds = 22, closure arcs = 56, rounds / n² = 0.3438\n",
    );
}

#[test]
fn serve_prints_the_final_snapshot() {
    for shards in [4, 1] {
        assert_ok(
            &format!(
                "serve --protocol push --family star --n 64 --rounds 4 --shards {shards} \
                 --snapshot-every 2 --seed 11"
            ),
            &format!(
                "serve push on star(n=64, shards={shards}): rounds = 4, epochs = 4, \
                 edges = 67, coverage = 0.0332, degree min/mean/max = 1/2.1/63, added = 4\n"
            ),
        );
    }
}

#[test]
fn usage_errors_exit_2() {
    assert_err("fly", "error: unknown subcommand fly");
    assert_err("run --process push", "error: run needs --family or --graph");
    assert_err(
        "generate --family star --n eight",
        "error: --n needs an integer",
    );
    assert_err(
        "serve --protocol push --family star --n 8 --transport uds",
        "error: --transport uds|lossy|udp needs --shards K > 1",
    );
    assert_err(
        "exact --protocol push --n 9 --edges 0-1",
        "error: exact analysis supports 2 <= n <= 5, got 9",
    );
}
