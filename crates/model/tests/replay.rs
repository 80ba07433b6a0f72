//! Seed replay: a model-check failure surfaced through the proptest
//! runner must report a `PROPTEST_SEED` that reproduces the identical
//! minimal counterexample.
//!
//! This is the only test in this binary on purpose: it sets the
//! `PROPTEST_SEED` environment variable, and tests within one binary run
//! concurrently.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gossip_model::{all_instances, check_kernel_with, CheckConfig, PhantomPush, Schedule, World};
use proptest::test_runner::{run_cases, Config, TestCaseError};

fn phantom_push_case(idx: usize) -> Result<(), TestCaseError> {
    let inst = all_instances(5)[idx];
    let cfg = CheckConfig::new(Schedule::Lossless, 64);
    match check_kernel_with(&PhantomPush, World::Graph, inst, &cfg) {
        Ok(_) => Ok(()),
        Err(ce) => Err(TestCaseError::fail(format!(
            "kernel violated safety on instance #{idx} ({}): {:?}",
            inst.describe(),
            ce.violation
        ))),
    }
}

fn run_property() -> String {
    let err = catch_unwind(AssertUnwindSafe(|| {
        run_cases(
            "phantom_push_is_safe",
            &Config::with_cases(64),
            (0usize..31,),
            |(idx,)| phantom_push_case(idx),
        )
    }))
    .expect_err("phantom push must fail the property");
    err.downcast_ref::<String>()
        .cloned()
        .expect("proptest panics with a String report")
}

#[test]
fn failing_check_reports_a_replayable_seed_and_shrinks_to_minimum() {
    let report = run_property();
    assert!(
        report.contains("rerun with PROPTEST_SEED="),
        "report must carry a replay seed: {report}"
    );
    // Instance #0 is the 1-node graph (no contacts, so even the phantom
    // kernel stays silent); #1, the single edge, is the smallest failing
    // input, and greedy halving toward the range start must reach it.
    assert!(
        report.contains("minimal counterexample") && report.contains("(1,)"),
        "shrinking did not reach the minimal instance: {report}"
    );

    let seed: u64 = report
        .split("PROPTEST_SEED=")
        .nth(1)
        .unwrap()
        .split(')')
        .next()
        .unwrap()
        .parse()
        .expect("seed parses as u64");
    std::env::set_var("PROPTEST_SEED", seed.to_string());
    let replayed = run_property();
    std::env::remove_var("PROPTEST_SEED");
    assert_eq!(
        report, replayed,
        "replaying with the reported seed must reproduce the identical report"
    );
}
