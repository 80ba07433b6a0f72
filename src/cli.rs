//! The `gossip` command-line tool: run, trace, generate, and analyze the
//! discovery processes without writing Rust.
//!
//! Implemented as a library module so every subcommand is unit-testable;
//! `src/bin/gossip.rs` is a three-line shim. See `Command::parse` for the
//! grammar.

use gossip_analysis::Summary;
use gossip_cluster::{ClusterBuilder, DatagramLoss};
use gossip_core::{
    convergence_rounds, ChurnBursts, ClosureReached, ComponentwiseComplete, DirectedPull,
    DiscoveryTrace, Engine, EngineBuilder, GossipGraph, MembershipPlan, RoundControl, RoundEngine,
    RoundEvent, RoundListener, RuleId, TrialConfig,
};
use gossip_graph::{generators, io as gio, ArenaGraph, DirectedGraph, ShardedArenaGraph};
use gossip_model::exact_expected_rounds;
use gossip_serve::{GossipService, ServeConfig};
use gossip_shard::transport::{TransportBuilder, TransportMode};
use gossip_shard::BuildSharded;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A parsed invocation: which subcommand runs, and every flag.
#[derive(Clone, Debug, PartialEq)]
pub struct Command {
    /// The subcommand.
    pub sub: Subcommand,
    /// Every flag, given or defaulted; each subcommand reads the ones
    /// [`USAGE`] lists for it.
    pub flags: Flags,
}

/// The subcommands, as [`USAGE`] lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subcommand {
    /// `generate`: emit a family's edge list.
    Generate,
    /// `run`: run a process to completion, optionally traced.
    Run,
    /// `trials`: Monte Carlo statistics over seeded runs.
    Trials,
    /// `exact`: the exact expected rounds of a small graph.
    Exact,
    /// `directed`: the directed two-hop walk to transitive closure.
    Directed,
    /// `serve`: a resident engine behind epoch snapshots.
    Serve,
    /// `help`: print [`USAGE`].
    Help,
}

/// The flags, each at the value given or at its default
/// ([`Flags::default`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Flags {
    /// `--family`: family name (see [`make_graph`]).
    pub family: Option<String>,
    /// `--protocol`, alias `--process`: a registry name (`push`, `pull`,
    /// `hybrid`).
    pub protocol: Option<String>,
    /// `--graph`: an edge-list file `run` loads instead of a family.
    pub graph: Option<String>,
    /// `--edges`: comma-separated `a-b` edges for `exact`.
    pub edges: Option<String>,
    /// `--n`: size parameter.
    pub n: Option<usize>,
    /// `--seed`.
    pub seed: u64,
    /// `--trials`: number of Monte Carlo trials.
    pub trials: usize,
    /// `--trace`: emit `run`'s introduction trace as CSV after the summary.
    pub trace: bool,
    /// `--param`: family-specific extra parameter (e.g. BA attachment count).
    pub param: Option<u64>,
    /// `--rounds`: `serve`'s round budget.
    pub rounds: u64,
    /// `--shards`: 1 serves the sequential arena engine, more the
    /// multi-shard engine.
    pub shards: usize,
    /// `--snapshot-every`: `serve`'s snapshot cadence, in rounds.
    pub snapshot_every: u64,
    /// `--churn`: churn bursts to schedule (0 = static membership).
    pub churn: usize,
    /// `--transport`: how `serve` hosts its shards.
    pub transport: Transport,
    /// `--bind`: `serve --transport udp` only, the address the coordinator
    /// binds (default `127.0.0.1:0`).
    pub bind: Option<String>,
    /// `--peers`: `serve --transport udp` only, comma-separated worker
    /// addresses (shards 1..K; default auto-assigned loopback ports).
    pub peers: Option<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            family: None,
            protocol: None,
            graph: None,
            edges: None,
            n: None,
            seed: 42,
            trials: 16,
            trace: false,
            param: None,
            rounds: 128,
            shards: 1,
            snapshot_every: 1,
            churn: 0,
            transport: Transport::Inproc,
            bind: None,
            peers: None,
        }
    }
}

/// How `serve` hosts its shards. All four replay the same trajectory;
/// see [`TransportBuilder`] for the wire protocol behind `uds` and
/// [`ClusterBuilder`] for `udp`/`lossy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Shared-memory sharding in this process (the default).
    Inproc,
    /// One worker process per shard, mailboxes serialized over UDS.
    Uds,
    /// `udp` on auto-assigned loopback ports with seeded datagram
    /// drop/duplication ([`DatagramLoss`]), repaired by the window layer.
    Lossy,
    /// One worker process per shard, frames exchanged peer-to-peer over
    /// UDP sockets from a static peer table (`--bind`/`--peers`).
    Udp,
}

impl Transport {
    /// Every accepted `--transport` spelling, in usage order. The parse
    /// error enumerates exactly this list, so a stale error message is a
    /// test failure rather than stale documentation.
    pub const NAMES: [(&'static str, Transport); 4] = [
        ("inproc", Transport::Inproc),
        ("uds", Transport::Uds),
        ("lossy", Transport::Lossy),
        ("udp", Transport::Udp),
    ];

    fn parse(s: &str) -> Result<Transport, String> {
        Transport::NAMES
            .iter()
            .find(|(name, _)| *name == s)
            .map(|&(_, t)| t)
            .ok_or_else(|| {
                let valid: Vec<&str> = Transport::NAMES.iter().map(|&(name, _)| name).collect();
                format!(
                    "unknown transport {s}; expected one of: {}",
                    valid.join(", ")
                )
            })
    }
}

/// Usage text.
pub const USAGE: &str = "\
gossip — Discovery through Gossip (SPAA 2012) toolkit

USAGE:
  gossip generate --family F --n N [--seed S] [--param P]   emit an edge list
  gossip run --protocol push|pull|hybrid (--family F --n N | --graph FILE)
             [--seed S] [--trace] [--param P] [--churn B]   run to completion
  gossip trials --protocol P --family F --n N [--trials T] [--seed S]
                                                            Monte Carlo stats
  gossip exact --protocol P --n N --edges \"0-1,1-2\"         exact E[rounds] (2<=n<=5)
  gossip directed --family cycle|thm14|thm15|gnp --n N [--seed S]
                                                            directed two-hop walk
  gossip serve --protocol P --family F --n N [--rounds R] [--shards K]
               [--snapshot-every E] [--seed S] [--churn B]
               [--transport inproc|uds|lossy|udp]           resident engine behind
               [--bind ADDR] [--peers A1,A2,...]            epoch snapshots
  gossip help

CHURN: --churn B schedules B bursts of n/16 departures (rejoining two rounds
       later with 3 bootstrap contacts) through the membership seam; the
       run reports the applied join/leave totals.

TRANSPORT: --transport uds runs each shard as its own OS process and
       exchanges mailboxes as length-prefixed frames over Unix domain
       sockets. --transport udp runs the datagram cluster: shard processes
       exchange frames peer-to-peer over UDP sockets from a static peer
       table (--bind sets the coordinator address, --peers the K-1 worker
       addresses; both default to auto-assigned loopback ports).
       --transport lossy is that cluster on loopback with seeded datagram
       drop/duplicate injection, repaired by its ack/nak retransmit window.
       All replay the in-process trajectory bit-for-bit and need
       --shards K > 1.

PROTOCOLS: resolved through the gossip-core registry (push, pull, hybrid);
           --process is accepted as an alias of --protocol.

FAMILIES: path cycle star double-star complete binary-tree random-tree
          sparse (tree + extra edges) ws (watts-strogatz) ba (barabasi-albert)
          hypercube (n = 2^param) barbell lollipop grid
";

impl Command {
    /// Parses an argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let name = it.next().map(String::as_str).unwrap_or("help");
        let mut f = Flags::default();
        while let Some(flag) = it.next() {
            let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--family" => f.family = Some(take()?.clone()),
                // --protocol is the registry-facing name; --process is the
                // historical alias. Both resolve through RuleId::parse.
                "--process" | "--protocol" => f.protocol = Some(take()?.clone()),
                "--graph" => f.graph = Some(take()?.clone()),
                "--edges" => f.edges = Some(take()?.clone()),
                "--n" => f.n = Some(int(flag, take()?)?),
                "--seed" => f.seed = int(flag, take()?)?,
                "--trials" => f.trials = int(flag, take()?)?,
                "--param" => f.param = Some(int(flag, take()?)?),
                "--rounds" => f.rounds = int(flag, take()?)?,
                "--shards" => f.shards = int(flag, take()?)?,
                "--snapshot-every" => f.snapshot_every = int(flag, take()?)?,
                "--churn" => f.churn = int(flag, take()?)?,
                "--transport" => f.transport = Transport::parse(take()?)?,
                "--bind" => f.bind = Some(take()?.clone()),
                "--peers" => f.peers = Some(take()?.clone()),
                "--trace" => f.trace = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }

        if f.transport != Transport::Inproc && name != "serve" {
            return Err("--transport only applies to serve".into());
        }
        if (f.bind.is_some() || f.peers.is_some()) && f.transport != Transport::Udp {
            return Err("--bind/--peers only apply to serve --transport udp".into());
        }
        let protocol = ("--protocol", f.protocol.is_some());
        let family = ("--family", f.family.is_some());
        let edges = ("--edges", f.edges.is_some());
        let n = ("--n", f.n.is_some());
        let (sub, required) = match name {
            "generate" => (Subcommand::Generate, vec![family, n]),
            "run" => (Subcommand::Run, vec![protocol]),
            "trials" => (Subcommand::Trials, vec![protocol, family, n]),
            "exact" => (Subcommand::Exact, vec![protocol, edges, n]),
            "directed" => (Subcommand::Directed, vec![family, n]),
            "serve" => (Subcommand::Serve, vec![protocol, family, n]),
            "help" | "--help" | "-h" => (Subcommand::Help, vec![]),
            other => return Err(format!("unknown subcommand {other}")),
        };
        if sub == Subcommand::Run && f.family.is_none() && f.graph.is_none() {
            return Err("run needs --family or --graph".into());
        }
        // Only `serve` gets this far with a transport other than inproc.
        if f.transport != Transport::Inproc && f.shards < 2 {
            return Err("--transport uds|lossy|udp needs --shards K > 1".into());
        }
        if let Some((flag, _)) = required.into_iter().find(|&(_, given)| !given) {
            return Err(format!("{name} needs {flag}"));
        }
        Ok(Command { sub, flags: f })
    }
}

/// An integer flag's value; the error names the flag.
fn int<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

/// Builds an undirected graph from a family name.
pub fn make_graph(
    family: &str,
    n: usize,
    seed: u64,
    param: Option<u64>,
) -> Result<ArenaGraph, String> {
    let mut rng = gossip_core::rng::stream_rng(seed, 0xC11, 0);
    let min_n = match family {
        "path" | "binary-tree" | "random-tree" | "sparse" => 1,
        "star" | "double-star" => 2,
        "cycle" => 3,
        "barbell" | "lollipop" => 4,
        _ => 0,
    };
    require(n >= min_n, family, format_args!("--n >= {min_n}, got {n}"))?;
    Ok(match family {
        "path" => generators::path(n),
        "cycle" => generators::cycle(n),
        "star" => generators::star(n),
        "double-star" => generators::double_star(n),
        "complete" => generators::complete(n),
        "binary-tree" => generators::binary_tree(n),
        "random-tree" => generators::random_tree(n, &mut rng),
        "sparse" => {
            let m = param.unwrap_or(2 * n as u64);
            let max_m = (n as u64).saturating_mul(n as u64 - 1) / 2;
            require(
                (n as u64 - 1..=max_m).contains(&m),
                family,
                format_args!(
                    "n - 1 <= m <= n(n - 1)/2 edges (default m = 2n), got n = {n}, m = {m}"
                ),
            )?;
            generators::tree_plus_random_edges(n, m, &mut rng)
        }
        "ws" => {
            let k = param.unwrap_or(3);
            require(
                k >= 1 && (n as u64) > k.saturating_mul(2),
                family,
                format_args!("1 <= k and n > 2k (default k = 3), got n = {n}, k = {k}"),
            )?;
            generators::watts_strogatz(n, k as usize, 0.1, &mut rng)
        }
        "ba" => {
            let m = param.unwrap_or(2);
            require(
                m >= 1 && (n as u64) > m,
                family,
                format_args!("1 <= m < n (default m = 2), got n = {n}, m = {m}"),
            )?;
            generators::barabasi_albert(n, m as usize, &mut rng)
        }
        "hypercube" => {
            require(
                param.is_some() || n >= 1,
                family,
                format_args!("--n >= 1 or a dimension --param d, got n = {n}"),
            )?;
            let d = param.unwrap_or_else(|| u64::from(n.ilog2()));
            require(
                d < 32,
                family,
                format_args!("dimension d < 32, got d = {d}"),
            )?;
            generators::hypercube(d as u32)
        }
        "barbell" => generators::barbell(n / 2),
        "lollipop" => generators::lollipop(n / 2, n - n / 2),
        "grid" => {
            let side = (n as f64).sqrt().round().max(1.0) as usize;
            generators::grid(side, side)
        }
        other => return Err(format!("unknown family {other}")),
    })
}

fn make_directed(family: &str, n: usize, seed: u64) -> Result<DirectedGraph, String> {
    let mut rng = gossip_core::rng::stream_rng(seed, 0xD1C, 0);
    let min_n = match family {
        "cycle" | "gnp" => 2,
        "thm15" => 3,
        "thm14" => 5,
        _ => 0,
    };
    require(n >= min_n, family, format_args!("--n >= {min_n}, got {n}"))?;
    Ok(match family {
        "cycle" => generators::directed_cycle(n),
        "thm14" => generators::theorem14_graph(n.next_multiple_of(4)),
        "thm15" => generators::theorem15_graph(if n.is_multiple_of(2) { n } else { n + 1 }),
        "gnp" => generators::directed_gnp_strong(n, (8.0 / n as f64).min(0.9), &mut rng),
        other => return Err(format!("unknown directed family {other}")),
    })
}

/// The generators `assert!` their size preconditions; the CLI checks each
/// one first, so a size out of range is a usage error naming the family
/// and its bound instead of a panic. Hypercube dimensions stop below 32
/// because node ids are `u32`.
fn require(ok: bool, family: &str, bound: std::fmt::Arguments<'_>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("family {family} needs {bound}"))
    }
}

/// The CLI's standard burst schedule for `--churn B`: `B` bursts of
/// `n/16` nodes, departing every 4 rounds from round 1, each rejoining
/// two rounds later with 3 bootstrap contacts. Deterministic in `seed`
/// (the plan replays; engines never draw membership randomness).
fn churn_plan(n: usize, bursts: usize, seed: u64) -> MembershipPlan {
    MembershipPlan::bursts(&ChurnBursts {
        n,
        nodes_per_burst: (n / 16).max(1),
        bursts,
        first_round: 1,
        period: 4,
        rejoin_after: 2,
        bootstrap_contacts: 3,
        seed: seed ^ 0xC402,
    })
}

fn parse_edges(spec: &str, n: usize) -> Result<ArenaGraph, String> {
    let mut g = ArenaGraph::new(n);
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (a, b) = part
            .trim()
            .split_once('-')
            .ok_or_else(|| format!("bad edge {part:?}; expected a-b"))?;
        let a: u32 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad endpoint in {part:?}"))?;
        let b: u32 = b
            .trim()
            .parse()
            .map_err(|_| format!("bad endpoint in {part:?}"))?;
        if a as usize >= n || b as usize >= n {
            return Err(format!("edge {part:?} out of range 0..{n}"));
        }
        g.add_edge(gossip_graph::NodeId(a), gossip_graph::NodeId(b));
    }
    Ok(g)
}

/// Totals the edges a served run adds, round by round.
struct AddedTotal(Arc<AtomicU64>);

impl<G: GossipGraph> RoundListener<G> for AddedTotal {
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        self.0.fetch_add(ev.stats.added, Ordering::Relaxed);
        RoundControl::Continue
    }
}

/// Runs an engine behind a [`GossipService`] for the configured budget and
/// summarizes what the final snapshot serves; an [`AddedTotal`] rides the
/// loop. A failed round is the error.
fn serve_report<E>(engine: E, cfg: ServeConfig) -> Result<String, String>
where
    E: RoundEngine + Send + 'static,
    E::Graph: 'static,
    E::Error: std::fmt::Display + Send + 'static,
{
    let added = Arc::new(AtomicU64::new(0));
    let svc = GossipService::spawn_with(engine, cfg, AddedTotal(added.clone()));
    let handle = svc.handle();
    let (_, outcome) = svc.join();
    if let Some(e) = outcome.error {
        return Err(format!("round {} failed: {e}", outcome.rounds + 1));
    }
    let stats = handle.snapshot().stats();
    Ok(format!(
        "rounds = {}, epochs = {}, edges = {}, coverage = {:.4}, \
         degree min/mean/max = {}/{:.1}/{}, added = {}",
        outcome.rounds,
        outcome.epochs,
        stats.edges,
        stats.coverage,
        stats.min_degree,
        stats.mean_degree,
        stats.max_degree,
        added.load(Ordering::Relaxed),
    ))
}

/// Executes a command, returning its stdout payload. The outer `Err` is a
/// usage error: the command line asks for something that cannot run. The
/// inner `Err` is a run that started and failed: a worker that could not
/// be spawned, or a served round that failed.
pub fn execute(cmd: &Command) -> Result<Result<String, String>, String> {
    let f = &cmd.flags;
    // `parse` rejects a subcommand missing one of its required flags; a
    // hand-built `Command` missing one reads it as empty.
    let (family, process, n) = (
        f.family.as_deref().unwrap_or_default(),
        f.protocol.as_deref().unwrap_or_default(),
        f.n.unwrap_or_default(),
    );
    let (seed, churn, shards) = (f.seed, f.churn, f.shards);
    let mut out = String::new();
    match cmd.sub {
        Subcommand::Help => out.push_str(USAGE),

        Subcommand::Generate => {
            let g = make_graph(family, n, seed, f.param)?;
            out.push_str(&gio::write_undirected(&g));
        }

        Subcommand::Run => {
            let g = match &f.graph {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    gio::parse_undirected(&text).map_err(|e| e.to_string())?
                }
                None => make_graph(family, n, seed, f.param)?,
            };
            let mut check = ComponentwiseComplete::for_graph(&g);
            let nf = g.n() as f64;
            let n_nodes = g.n();
            let id = RuleId::parse(process)?;
            // Under churn a loaded disconnected graph can end up with a
            // rejoined node bootstrapped outside its original component,
            // making the componentwise target unreachable — cap the run
            // instead of spinning forever. Static runs keep the unbounded
            // budget they always had.
            let budget = if churn > 0 { 100_000 } else { u64::MAX };
            let mut engine = Engine::new(g, id, seed);
            if churn > 0 {
                engine = engine.with_membership(churn_plan(n_nodes, churn, seed));
            }
            // Both paths make the same draws; only `--trace` keeps the
            // per-edge events.
            let mut trace = f.trace.then(DiscoveryTrace::default);
            let outcome = match &mut trace {
                Some(t) => engine.run_traced(&mut check, budget, t),
                None => engine.run_until(&mut check, budget),
            };
            let mem = engine.membership_stats();
            let _ = writeln!(
                out,
                "process = {process}, rounds = {}, final edges = {}, rounds / n log² n = {:.4}",
                outcome.rounds,
                outcome.final_edges,
                outcome.rounds as f64 / (nf * nf.ln() * nf.ln()).max(1.0),
            );
            if churn > 0 {
                let _ = writeln!(
                    out,
                    "churn: bursts = {churn}, leaves = {}, joins = {}, edges removed = {}, \
                     bootstrap edges = {}",
                    mem.leaves, mem.joins, mem.edges_removed, mem.edges_added,
                );
            }
            if let Some(t) = trace {
                out.push_str(&t.to_csv());
            }
        }

        Subcommand::Trials => {
            let g = make_graph(family, n, seed, f.param)?;
            let cfg = TrialConfig {
                trials: f.trials,
                base_seed: seed,
                max_rounds: u64::MAX,
            };
            let id = RuleId::parse(process)?;
            let rounds = convergence_rounds(&g, id, ComponentwiseComplete::for_graph, &cfg);
            let s = Summary::of_rounds(&rounds);
            let _ = writeln!(
                out,
                "{process} on {family}(n={n}): trials = {}, mean = {:.1} ± {:.1}, \
                 median = {:.1}, min = {}, max = {}",
                s.count, s.mean, s.ci95, s.median, s.min, s.max
            );
        }

        Subcommand::Exact => {
            // Checked before the graph is built: the solver panics outside
            // this range, and a huge `n` would allocate first.
            let max = gossip_model::MAX_N;
            if !(2..=max).contains(&n) {
                return Err(format!("exact analysis supports 2 <= n <= {max}, got {n}"));
            }
            let g = parse_edges(f.edges.as_deref().unwrap_or_default(), n)?;
            let e = exact_expected_rounds(&g, RuleId::parse(process)?);
            let _ = writeln!(out, "exact E[rounds to fixed point] = {e:.6}");
        }

        Subcommand::Serve => {
            let g = make_graph(family, n, seed, f.param)?;
            let cfg = ServeConfig {
                snapshot_every: f.snapshot_every,
                budget: f.rounds,
            };
            let id = RuleId::parse(process)?;
            let plan = (churn > 0).then(|| churn_plan(g.n(), churn, seed));
            let run = if matches!(f.transport, Transport::Udp | Transport::Lossy) {
                // Datagram cluster: coordinator in this process, one
                // re-execed worker process per remaining peer-table slot
                // (`maybe_run_cluster_shard` diverts the copies).
                let g = ShardedArenaGraph::from_arena(&g, shards);
                let mut b = ClusterBuilder::new(g, id, seed).with_mode(TransportMode::Process);
                if let Some(plan) = plan {
                    b = b.with_membership(plan);
                }
                if f.transport == Transport::Lossy {
                    b = b.with_loss(DatagramLoss {
                        seed: seed ^ 0x1055,
                        drop_per_mille: 50,
                        dup_per_mille: 30,
                    });
                }
                if let Some(addr) = &f.bind {
                    b = b.with_bind(addr.parse().map_err(|e| format!("--bind {addr}: {e}"))?);
                }
                if let Some(list) = &f.peers {
                    let table = list
                        .split(',')
                        .map(|a| a.parse().map_err(|e| format!("--peers {a}: {e}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    b = b.with_peers(table);
                }
                b.spawn()
                    .map_err(|e| format!("cluster spawn: {e}"))
                    .and_then(|engine| serve_report(engine, cfg))
            } else if f.transport == Transport::Uds {
                // Serialized seam: one OS process per shard, framed
                // mailboxes over UDS. Worker copies of this binary never
                // reach the CLI — `maybe_run_worker` diverts them at the
                // top of `main`.
                let g = ShardedArenaGraph::from_arena(&g, shards);
                let mut b = TransportBuilder::new(g, id, seed).with_mode(TransportMode::Process);
                if let Some(plan) = plan {
                    b = b.with_membership(plan);
                }
                b.spawn()
                    .map_err(|e| format!("transport spawn: {e}"))
                    .and_then(|engine| serve_report(engine, cfg))
            } else if shards > 1 {
                let g = ShardedArenaGraph::from_arena(&g, shards);
                let mut b = EngineBuilder::new(g, id, seed);
                if let Some(plan) = plan {
                    b = b.membership(plan);
                }
                serve_report(b.build_sharded(), cfg)
            } else {
                let mut b = EngineBuilder::new(g, id, seed);
                if let Some(plan) = plan {
                    b = b.membership(plan);
                }
                serve_report(b.build(), cfg)
            };
            let line = match run {
                Ok(line) => line,
                Err(e) => return Ok(Err(e)),
            };
            let churn_note = if churn > 0 {
                format!(", churn={churn}")
            } else {
                String::new()
            };
            let transport_note = match f.transport {
                Transport::Inproc => "",
                Transport::Uds => ", transport=uds",
                Transport::Lossy => ", transport=lossy",
                Transport::Udp => ", transport=udp",
            };
            let _ = writeln!(
                out,
                "serve {process} on {family}(n={n}, shards={shards}{churn_note}{transport_note}): {line}"
            );
        }

        Subcommand::Directed => {
            let g = make_directed(family, n, seed)?;
            let mut check = ClosureReached::for_graph(&g);
            let target = check.target_arcs();
            let n_actual = g.n() as f64;
            let mut engine = Engine::new(g, DirectedPull, seed);
            let outcome = engine.run_until(&mut check, u64::MAX);
            let _ = writeln!(
                out,
                "directed pull on {family}(n={}): rounds = {}, closure arcs = {target}, \
                 rounds / n² = {:.4}",
                n_actual as usize,
                outcome.rounds,
                outcome.rounds as f64 / (n_actual * n_actual),
            );
        }
    }
    Ok(Ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parses and executes one command line; usage errors and run
    /// failures both come back as the `Err`.
    fn exec(line: &str) -> Result<String, String> {
        execute(&Command::parse(&argv(line))?)?
    }

    #[test]
    fn parse_generate() {
        let cmd = Command::parse(&argv("generate --family star --n 8 --seed 3")).unwrap();
        assert_eq!(
            cmd,
            Command {
                sub: Subcommand::Generate,
                flags: Flags {
                    family: Some("star".into()),
                    n: Some(8),
                    seed: 3,
                    ..Flags::default()
                }
            }
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(Command::parse(&argv("fly --to moon")).is_err());
        assert!(Command::parse(&argv("run --process push")).is_err()); // no graph
        assert!(Command::parse(&argv("generate --n 8")).is_err()); // no family
        assert!(Command::parse(&argv("generate --family star --n eight")).is_err());
    }

    #[test]
    fn parse_defaults() {
        let cmd = Command::parse(&argv("trials --process pull --family cycle --n 10")).unwrap();
        assert_eq!(cmd.sub, Subcommand::Trials);
        assert_eq!((cmd.flags.trials, cmd.flags.seed), (16, 42));
    }

    #[test]
    fn help_is_default() {
        let help = Command::parse(&[]).unwrap();
        assert_eq!(
            help,
            Command {
                sub: Subcommand::Help,
                flags: Flags::default()
            }
        );
        assert!(execute(&help).unwrap().unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_emits_parseable_edge_list() {
        let out = exec("generate --family cycle --n 6 --seed 1").unwrap();
        let g = gio::parse_undirected(&out).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn run_completes_and_traces() {
        let out = exec("run --protocol push --family star --n 8 --seed 5 --trace").unwrap();
        assert!(out.contains("process = push"));
        assert!(out.contains("round,introducer,a,b"));
        // Star on 8 gains C(7,2) = 21 edges: header + 21 trace lines + summary.
        assert_eq!(out.lines().count(), 1 + 1 + 21);
    }

    #[test]
    fn trials_reports_stats() {
        let out = exec("trials --protocol pull --family cycle --n 12 --trials 4 --seed 9").unwrap();
        assert!(out.contains("mean ="));
        assert!(out.contains("trials = 4"));
    }

    #[test]
    fn exact_matches_solver() {
        let out = exec("exact --protocol push --edges 0-1,1-2 --n 3").unwrap();
        assert!(
            out.contains("2.000000"),
            "path-3 push is exactly 2 rounds: {out}"
        );
        // Hybrid is one more kernel: P(no edge per round) = 1/8, E = 8/7.
        let out = exec("exact --protocol hybrid --edges 0-1,1-2 --n 3").unwrap();
        assert!(out.contains("1.142857"), "path-3 hybrid is 8/7: {out}");
        // n outside the solver's range is a clean error, not a panic.
        for n in [0, 1, 6, 9] {
            let err = execute(&Command {
                sub: Subcommand::Exact,
                flags: Flags {
                    protocol: Some("push".into()),
                    edges: Some(String::new()),
                    n: Some(n),
                    ..Flags::default()
                },
            })
            .unwrap_err();
            assert!(err.contains("2 <= n <= 5"), "n = {n}: {err}");
        }
    }

    #[test]
    fn exact_rejects_bad_edges() {
        assert!(parse_edges("0:1", 3).is_err());
        assert!(parse_edges("0-9", 3).is_err());
        assert!(parse_edges("x-1", 3).is_err());
        assert!(parse_edges("0-1,1-2", 3).is_ok());
    }

    #[test]
    fn directed_runs() {
        let out = exec("directed --family cycle --n 8 --seed 2").unwrap();
        assert!(out.contains("closure arcs = 56"));
    }

    #[test]
    fn serve_reports_final_snapshot_for_both_engines() {
        // Sequential (shards = 1) and sharded (shards = 4) behind the same
        // subcommand; 4 rounds of push on a 64-star is deterministic.
        let mut lines = Vec::new();
        for shards in [1usize, 4] {
            let out = exec(&format!(
                "serve --protocol push --family star --n 64 --rounds 4 --shards {shards} \
                 --snapshot-every 2 --seed 11"
            ))
            .unwrap();
            assert!(out.contains("rounds = 4"), "{out}");
            assert!(out.contains("coverage ="), "{out}");
            // budget 4, cadence 2 → epochs 0 (initial), 2, 4, final = 4
            assert!(out.contains("epochs = 4"), "{out}");
            lines.push(out.split_once("): ").unwrap().1.to_string());
        }
        // Same trajectory regardless of the engine serving it.
        assert_eq!(lines[0], lines[1]);
    }

    /// An engine whose round `fail_at` fails; the rounds before it are
    /// `inner`'s.
    struct FailsAt<E> {
        inner: E,
        fail_at: u64,
    }

    impl<E: RoundEngine<Error = std::convert::Infallible>> RoundEngine for FailsAt<E> {
        type Graph = E::Graph;
        type Error = String;
        fn graph(&self) -> &E::Graph {
            self.inner.graph()
        }
        fn quanta(&self) -> u64 {
            self.inner.quanta()
        }
        fn step_listened(
            &mut self,
            listener: &mut dyn RoundListener<E::Graph>,
        ) -> Result<gossip_core::RoundStats, String> {
            if self.inner.quanta() + 1 == self.fail_at {
                return Err(format!("round {} lost a worker", self.fail_at));
            }
            let Ok(stats) = self.inner.step_listened(listener);
            Ok(stats)
        }
    }

    #[test]
    fn a_failed_serve_round_is_a_run_failure() {
        // `execute` passes `serve_report`'s error on as the inner `Err`,
        // which the binary prints without usage and exits 1 on.
        let engine = FailsAt {
            inner: EngineBuilder::new(generators::star(64), RuleId::Push, 11).build(),
            fail_at: 3,
        };
        let cfg = ServeConfig {
            snapshot_every: 2,
            budget: 8,
        };
        assert_eq!(
            serve_report(engine, cfg),
            Err("round 3 failed: round 3 lost a worker".to_string())
        );
    }

    #[test]
    fn parse_serve_flags() {
        let cmd = Command::parse(&argv(
            "serve --process pull --family sparse --n 100 --rounds 9 --shards 2 --snapshot-every 3",
        ))
        .unwrap();
        assert_eq!(cmd.sub, Subcommand::Serve);
        let f = cmd.flags;
        assert_eq!((f.rounds, f.shards, f.snapshot_every), (9, 2, 3));
        assert!(Command::parse(&argv("serve --family star --n 8")).is_err());
    }

    #[test]
    fn parse_transport_flag() {
        for (word, want) in Transport::NAMES {
            let cmd = Command::parse(&argv(&format!(
                "serve --protocol push --family star --n 32 --shards 2 --transport {word}"
            )))
            .unwrap();
            assert_eq!(cmd.flags.transport, want);
        }
        // Unknown mode, serialized transport without real shards, and
        // --transport on a non-serve subcommand are all clean errors.
        // The unknown-mode error must enumerate every valid spelling —
        // it used to trail behind the enum as transports were added.
        let err = Command::parse(&argv(
            "serve --protocol push --family star --n 32 --shards 2 --transport tcp",
        ))
        .unwrap_err();
        assert!(err.contains("unknown transport"), "{err}");
        for (word, _) in Transport::NAMES {
            assert!(err.contains(word), "error does not list {word}: {err}");
        }
        assert!(Command::parse(&argv(
            "serve --protocol push --family star --n 32 --transport uds"
        ))
        .unwrap_err()
        .contains("--shards"));
        assert!(Command::parse(&argv(
            "run --protocol push --family star --n 32 --transport uds"
        ))
        .unwrap_err()
        .contains("only applies to serve"));
    }

    #[test]
    fn parse_peer_table_flags() {
        let f = Command::parse(&argv(
            "serve --protocol push --family star --n 32 --shards 2 --transport udp \
             --bind 127.0.0.1:7000 --peers 127.0.0.1:7001",
        ))
        .unwrap()
        .flags;
        assert_eq!(f.transport, Transport::Udp);
        assert_eq!(f.bind.as_deref(), Some("127.0.0.1:7000"));
        assert_eq!(f.peers.as_deref(), Some("127.0.0.1:7001"));
        // The peer-table flags are meaningless off the datagram path.
        assert!(Command::parse(&argv(
            "serve --protocol push --family star --n 32 --shards 2 --transport uds \
             --bind 127.0.0.1:7000"
        ))
        .unwrap_err()
        .contains("--transport udp"));
        assert!(Command::parse(&argv(
            "run --protocol push --family star --n 32 --peers 127.0.0.1:7001"
        ))
        .unwrap_err()
        .contains("--transport udp"));
    }

    #[test]
    fn parse_churn_flag() {
        for (line, churn) in [
            ("run --protocol push --family sparse --n 64 --churn 2", 2),
            ("serve --protocol pull --family star --n 32 --churn 1", 1),
        ] {
            assert_eq!(Command::parse(&argv(line)).unwrap().flags.churn, churn);
        }
        assert!(
            Command::parse(&argv("run --protocol push --family star --n 8 --churn x")).is_err()
        );
    }

    #[test]
    fn run_under_churn_reports_membership_and_completes() {
        let out = exec("run --protocol push --family sparse --n 96 --seed 7 --churn 2").unwrap();
        assert!(out.contains("process = push"), "{out}");
        // 2 bursts of 96/16 = 6 nodes, each leaving once and rejoining once.
        assert!(
            out.contains("churn: bursts = 2, leaves = 12, joins = 12"),
            "{out}"
        );
    }

    #[test]
    fn serve_under_churn_is_engine_invariant() {
        // The same churned trajectory from the sequential and the sharded
        // resident engine — the membership seam rides the builder into both.
        let mut lines = Vec::new();
        for shards in [1usize, 4] {
            let out = exec(&format!(
                "serve --protocol pull --family sparse --n 128 --rounds 8 --shards {shards} \
                 --snapshot-every 2 --seed 13 --churn 1"
            ))
            .unwrap();
            assert!(out.contains("churn=1"), "{out}");
            lines.push(out.split_once("): ").unwrap().1.to_string());
        }
        assert_eq!(lines[0], lines[1]);
    }

    #[test]
    fn all_families_generate() {
        for fam in [
            "path",
            "cycle",
            "star",
            "double-star",
            "complete",
            "binary-tree",
            "random-tree",
            "sparse",
            "ws",
            "ba",
            "barbell",
            "lollipop",
            "grid",
        ] {
            let g = make_graph(fam, 16, 7, None).unwrap();
            assert!(g.n() >= 4, "{fam} produced a degenerate graph");
        }
        let g = make_graph("hypercube", 16, 7, Some(4)).unwrap();
        assert_eq!(g.n(), 16);
        assert!(make_graph("klein-bottle", 16, 7, None).is_err());
    }

    #[test]
    fn family_sizes_out_of_range_are_errors_not_panics() {
        for line in [
            "run --protocol push --family star --n 0",
            "run --protocol push --family path --n 0",
            "run --protocol push --family sparse --n 2",
            "run --protocol push --family ws --n 8 --param 0",
            "run --protocol push --family barbell --n 1",
            "run --protocol push --family hypercube --n 0",
            "run --protocol push --family hypercube --n 8 --param 40",
            "generate --family lollipop --n 1",
            "directed --family cycle --n 0",
            "directed --family thm14 --n 0",
            "directed --family gnp --n 0",
            "directed --family gnp --n 1",
        ] {
            let family = line.split_once("--family ").unwrap().1;
            let family = family.split_whitespace().next().unwrap();
            let err = execute(&Command::parse(&argv(line)).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("family {family} needs")),
                "{line}: {err}"
            );
        }
        // Each family's smallest accepted size (under its default
        // parameter) builds.
        for (family, n) in [
            ("path", 1),
            ("cycle", 3),
            ("star", 2),
            ("double-star", 2),
            ("complete", 0),
            ("binary-tree", 1),
            ("random-tree", 1),
            ("sparse", 5),
            ("ws", 7),
            ("ba", 3),
            ("hypercube", 1),
            ("barbell", 4),
            ("lollipop", 4),
            ("grid", 0),
        ] {
            assert!(
                make_graph(family, n, 7, None).is_ok(),
                "{family} at n = {n}"
            );
        }
        assert!(make_graph("sparse", 1, 7, Some(0)).is_ok());
        assert!(make_graph("ws", 3, 7, Some(1)).is_ok());
        assert!(make_graph("ba", 2, 7, Some(1)).is_ok());
        assert!(make_graph("hypercube", 0, 7, Some(0)).is_ok());
        for (family, n) in [("cycle", 2), ("thm15", 3), ("thm14", 5), ("gnp", 2)] {
            assert!(make_directed(family, n, 7).is_ok(), "{family} at n = {n}");
        }
    }
}
