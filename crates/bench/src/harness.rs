//! Shared experiment plumbing: CLI parsing, result persistence, progress.

use gossip_analysis::{Summary, Table};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct Args {
    /// Shrink sweeps for a fast smoke run.
    pub quick: bool,
    /// Base seed for all randomness.
    pub seed: u64,
    /// Trials per configuration (0 = experiment default).
    pub trials: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Battery ids (`E1` … `E20`) to run; empty runs the whole battery.
    pub only: Vec<String>,
    /// Render the aggregated paper-results report.
    pub report: bool,
    /// `--report` only: how many seeds to pool per configuration.
    pub report_seeds: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            quick: false,
            seed: 0xD15C0,
            trials: 0,
            out_dir: PathBuf::from("results"),
            only: Vec::new(),
            report: false,
            report_seeds: 3,
        }
    }
}

/// Parses `--only ID[,ID…]`, `--quick`, `--seed N`, `--trials N`,
/// `--out DIR`, `--report`, `--report-seeds N` from argv. Unknown flags
/// abort with usage — silent typos in experiment flags have burned too
/// many lab notebooks.
pub fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--report" => args.report = true,
            "--only" => {
                let ids = it
                    .next()
                    .unwrap_or_else(|| usage("--only needs a comma-separated id list"));
                args.only.extend(ids.split(',').map(String::from));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"))
            }
            "--trials" => {
                args.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--trials needs an integer"))
            }
            "--report-seeds" => {
                args.report_seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--report-seeds needs a positive integer"))
            }
            "--out" => {
                args.out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: run_all [--only ID[,ID...]] [--quick] [--seed N] [--trials N] [--out DIR] \
         [--report] [--report-seeds N]"
    );
    std::process::exit(2);
}

/// One machine-readable measured quantity: the summary of a sample of
/// `metric` values for one `(algorithm, family, n)` configuration. This is
/// what `run_all --report` pools across seeds and renders into `RESULTS.md`,
/// and what lands in each experiment's JSON artifact.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Experiment id, e.g. `"E1-push-scaling"`.
    pub experiment: String,
    /// What was measured: `"rounds"`, `"time"`, `"max_message_bits"`, …
    pub metric: String,
    /// Algorithm/process label, e.g. `"push"`.
    pub algorithm: String,
    /// Workload label: topology family or scenario, e.g. `"random-tree"`.
    pub family: String,
    /// Problem size the configuration sweeps (`n`, `k`, … per experiment).
    pub n: u64,
    /// Number of observations behind the summary.
    pub trials: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for single observations).
    pub stddev: f64,
    /// Half-width of the ~95% CI for the mean (0 for single observations).
    /// Per-seed rows carry the normal-theory half-width; report pooling
    /// replaces it with a percentile-bootstrap half-width computed from the
    /// pooled raw [`samples`](Measurement::samples).
    pub ci95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// The raw observations behind the summary, in trial order. Report
    /// pooling concatenates these across seeds so `RESULTS.md` CIs are
    /// bootstrapped from per-trial samples, not merged normal-theory
    /// moments.
    pub samples: Vec<f64>,
}

/// A named experiment result: rendered tables plus raw rows for JSON.
#[derive(Debug)]
pub struct Report {
    /// Experiment id, e.g. "E1-push-scaling".
    pub id: String,
    /// Free-form headline findings (one per line).
    pub notes: Vec<String>,
    /// Named tables (section title, table).
    pub tables: Vec<(String, Table)>,
    /// Machine-readable measurements backing the tables.
    pub measurements: Vec<Measurement>,
}

/// Serializable summary row for the JSON artifact.
#[derive(Serialize)]
struct JsonReport<'a> {
    id: &'a str,
    notes: &'a [String],
    tables: Vec<JsonTable<'a>>,
    measurements: &'a [Measurement],
}

#[derive(Serialize)]
struct JsonTable<'a> {
    title: &'a str,
    csv: String,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            notes: Vec::new(),
            tables: Vec::new(),
            measurements: Vec::new(),
        }
    }

    /// Adds a headline note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds a titled table.
    pub fn table(&mut self, title: impl Into<String>, t: Table) {
        self.tables.push((title.into(), t));
    }

    /// Records the summary of a sample of `metric` values for one
    /// configuration.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn measure(
        &mut self,
        metric: impl Into<String>,
        algorithm: impl Into<String>,
        family: impl Into<String>,
        n: u64,
        values: &[f64],
    ) {
        let s = Summary::of(values);
        self.measurements.push(Measurement {
            experiment: self.id.clone(),
            metric: metric.into(),
            algorithm: algorithm.into(),
            family: family.into(),
            n,
            trials: s.count as u64,
            mean: s.mean,
            stddev: s.stddev,
            ci95: s.ci95,
            min: s.min,
            max: s.max,
            samples: values.to_vec(),
        });
    }

    /// Records a sample of integer round counts under the `"rounds"` metric.
    pub fn measure_rounds(
        &mut self,
        algorithm: impl Into<String>,
        family: impl Into<String>,
        n: u64,
        rounds: &[u64],
    ) {
        let vals: Vec<f64> = rounds.iter().map(|&r| r as f64).collect();
        self.measure("rounds", algorithm, family, n, &vals);
    }

    /// Records a single deterministic or pre-aggregated observation.
    pub fn measure_scalar(
        &mut self,
        metric: impl Into<String>,
        algorithm: impl Into<String>,
        family: impl Into<String>,
        n: u64,
        value: f64,
    ) {
        self.measure(metric, algorithm, family, n, &[value]);
    }

    /// Prints the report to stdout as markdown.
    pub fn print(&self) {
        println!("\n## {}\n", self.id);
        for n in &self.notes {
            println!("* {n}");
        }
        for (title, t) in &self.tables {
            println!("\n### {title}\n");
            print!("{}", t.to_markdown());
        }
    }

    /// Writes `<out>/<id>.md`, `<out>/<id>.csv` (tables concatenated), and
    /// `<out>/<id>.json`.
    pub fn save(&self, out_dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let base = out_dir.join(&self.id);
        // Markdown
        let mut md = std::fs::File::create(base.with_extension("md"))?;
        writeln!(md, "## {}\n", self.id)?;
        for n in &self.notes {
            writeln!(md, "* {n}")?;
        }
        for (title, t) in &self.tables {
            writeln!(md, "\n### {title}\n")?;
            write!(md, "{}", t.to_markdown())?;
        }
        // CSV (sections separated by comment lines)
        let mut csv = std::fs::File::create(base.with_extension("csv"))?;
        for (title, t) in &self.tables {
            writeln!(csv, "# {title}")?;
            write!(csv, "{}", t.to_csv())?;
        }
        // JSON
        let json = JsonReport {
            id: &self.id,
            notes: &self.notes,
            tables: self
                .tables
                .iter()
                .map(|(title, t)| JsonTable {
                    title,
                    csv: t.to_csv(),
                })
                .collect(),
            measurements: &self.measurements,
        };
        std::fs::write(
            base.with_extension("json"),
            serde_json::to_string_pretty(&json).expect("report serialization"),
        )?;
        Ok(())
    }

    /// Print and save in one call (the standard bin epilogue).
    pub fn finish(&self, args: &Args) {
        self.print();
        if let Err(e) = self.save(&args.out_dir) {
            eprintln!("warning: could not save results: {e}");
        } else {
            println!(
                "\n[saved to {}/{}.{{md,csv,json}}]",
                args.out_dir.display(),
                self.id
            );
        }
    }
}

/// Geometric sweep of problem sizes: `base * 2^i` for `i < steps`.
pub fn geometric_sizes(base: usize, steps: usize) -> Vec<usize> {
    (0..steps).map(|i| base << i).collect()
}

/// Mean of integer round counts.
pub fn mean(rounds: &[u64]) -> f64 {
    rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_sizes_doubles() {
        assert_eq!(geometric_sizes(32, 4), vec![32, 64, 128, 256]);
        assert_eq!(geometric_sizes(10, 1), vec![10]);
    }

    #[test]
    fn report_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join(format!("gossip-bench-test-{}", std::process::id()));
        let mut r = Report::new("T0-selftest");
        r.note("hello");
        let mut t = Table::new(["a", "b"]);
        t.push_row(["1", "2"]);
        r.table("numbers", t);
        r.measure_rounds("push", "star", 64, &[10, 12, 14]);
        r.save(&dir).unwrap();
        let md = std::fs::read_to_string(dir.join("T0-selftest.md")).unwrap();
        assert!(md.contains("hello"));
        assert!(md.contains("| a"));
        let json = std::fs::read_to_string(dir.join("T0-selftest.json")).unwrap();
        assert!(json.contains("T0-selftest"));
        assert!(json.contains("\"measurements\""));
        assert!(json.contains("\"algorithm\": \"push\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measurements_summarize_samples() {
        let mut r = Report::new("T1");
        r.measure_rounds("pull", "cycle", 128, &[10, 20, 30]);
        r.measure_scalar("max_message_bits", "flooding", "tree", 64, 4096.0);
        let m = &r.measurements[0];
        assert_eq!((m.n, m.trials), (128, 3));
        assert!((m.mean - 20.0).abs() < 1e-12);
        assert!((m.min, m.max) == (10.0, 30.0));
        assert!(m.ci95 > 0.0);
        let s = &r.measurements[1];
        assert_eq!((s.trials, s.stddev, s.ci95), (1, 0.0, 0.0));
        assert_eq!(s.mean, 4096.0);
    }

    #[test]
    fn mean_of_rounds() {
        assert_eq!(mean(&[1, 2, 3]), 2.0);
    }
}
