//! Runs the experiment battery (E1–E20) and writes every report to the
//! results directory. `--quick` keeps the whole thing under a couple of
//! minutes; the full run is sized for a coffee break.
//!
//! `--only ID[,ID…]` runs just the named experiments (the ids `battery()`
//! lists, in its order) — e.g. `--only E19,E20 --quick`. Only E18 wants
//! running alone: its 1 GiB peak-RSS ceiling at n = 2^22 is asserted only
//! when it owns the process high-water mark, which earlier experiments in
//! a longer battery raise.
//!
//! `--report` switches to paper-results mode: the battery runs once per
//! seed (`--report-seeds`, default 3), the per-configuration measurements
//! are pooled across seeds, and the aggregated Markdown report — paper
//! claim vs. measured, mean ± CI per algorithm per n, log²-n fit quality —
//! is written to `<out>/RESULTS.md`. No experiment records wall-clock
//! time or memory (the benchmark ledger, `benchmark/run.sh`, measures
//! those), so the same command line reproduces every output byte-for-byte.

use gossip_bench::experiments as exp;
use gossip_bench::{parse_args, report, Args, Measurement, Report};
use std::io::Write as _;
use std::time::Instant;

/// One battery entry: its id and its `run`.
type Experiment = (&'static str, fn(&Args) -> Report);

/// The battery, in fixed order (report reproducibility relies on it).
fn battery() -> Vec<Experiment> {
    vec![
        ("E1", exp::scaling::run_push),
        ("E2/E4", exp::dense::run),
        ("E3", exp::scaling::run_pull),
        ("E5/E6", exp::directed::run),
        ("E7", exp::nonmonotone::run),
        ("E8", exp::mindegree::run),
        ("E9", exp::subset::run),
        ("E10", exp::baselines::run),
        ("E11", exp::robustness::run),
        ("E12", exp::netsim::run),
        ("E13", exp::evolution::run),
        ("E14", exp::asynchrony::run),
        ("E15", exp::scale::run),
        ("E16", exp::shard::run),
        ("E17", exp::serve_load::run),
        ("E18", exp::churn::run),
        ("E19", exp::transport::run),
        ("E20", exp::cluster::run),
    ]
}

/// The battery entries `--only` selects — all of them when it is absent.
/// An id the battery does not list exits 2 naming the ones it does.
fn selected(args: &Args) -> Vec<Experiment> {
    let mut battery = battery();
    if let Some(bad) = args
        .only
        .iter()
        .find(|id| !battery.iter().any(|(known, _)| known == id))
    {
        let ids: Vec<&str> = battery.iter().map(|&(id, _)| id).collect();
        eprintln!(
            "error: unknown experiment id {bad}; expected one of: {}",
            ids.join(", ")
        );
        std::process::exit(2);
    }
    if !args.only.is_empty() {
        battery.retain(|(id, _)| args.only.iter().any(|o| o == id));
    }
    battery
}

fn main() {
    // E19/E20 spawn one re-execed copy of this binary per shard; divert
    // worker copies before they can start a second battery.
    gossip_shard::maybe_run_worker();
    gossip_cluster::maybe_run_cluster_shard();

    let args = parse_args();
    let battery = selected(&args);
    if args.report {
        run_report(&args, &battery);
        return;
    }
    let total = Instant::now();
    for (id, run) in battery {
        let t = Instant::now();
        eprintln!("[run_all] starting {id} ...");
        let report = run(&args);
        report.finish(&args);
        eprintln!("[run_all] {id} done in {:.1}s", t.elapsed().as_secs_f64());
    }
    eprintln!(
        "[run_all] battery complete in {:.1}s (quick = {})",
        total.elapsed().as_secs_f64(),
        args.quick
    );
}

/// Paper-results mode: battery × seeds → pooled measurements → RESULTS.md.
fn run_report(args: &Args, battery: &[Experiment]) {
    let total = Instant::now();
    let mut all: Vec<Measurement> = Vec::new();
    for i in 0..args.report_seeds {
        // Widely separated per-run seeds; every experiment further mixes
        // its own stream constants on top.
        let seed = args
            .seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sub = Args {
            seed,
            report: false,
            ..args.clone()
        };
        for &(id, run) in battery {
            let t = Instant::now();
            eprintln!(
                "[run_all --report] seed {}/{}: {id} ...",
                i + 1,
                args.report_seeds
            );
            all.extend(run(&sub).measurements);
            eprintln!(
                "[run_all --report] seed {}/{}: {id} done in {:.1}s",
                i + 1,
                args.report_seeds,
                t.elapsed().as_secs_f64()
            );
        }
    }
    let pooled = report::pool(&all);
    let md = report::render_results(&pooled, args);
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = args.out_dir.join("RESULTS.md");
    let mut f = std::fs::File::create(&path).expect("create RESULTS.md");
    f.write_all(md.as_bytes()).expect("write RESULTS.md");
    eprintln!(
        "[run_all --report] {} measurements pooled into {} configurations; \
         report written to {} in {:.1}s",
        all.len(),
        pooled.len(),
        path.display(),
        total.elapsed().as_secs_f64()
    );
}
