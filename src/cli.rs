//! The `gossip` command-line tool: run, trace, generate, and analyze the
//! discovery processes without writing Rust.
//!
//! Implemented as a library module so every subcommand is unit-testable;
//! `src/bin/gossip.rs` is a three-line shim. See `Command::parse` for the
//! grammar.

use gossip_analysis::{exact_expected_rounds, ProcessKind, Summary};
use gossip_cluster::{ClusterBuilder, DatagramLoss};
use gossip_core::{
    convergence_rounds, with_rule, ChurnBursts, ClosureReached, ComponentwiseComplete,
    DirectedPull, DiscoveryTrace, Engine, EngineBuilder, ListenerSet, MembershipPlan, RoundEngine,
    RuleId, TrialConfig,
};
use gossip_graph::{generators, io as gio, ArenaGraph, DirectedGraph, ShardedArenaGraph};
use gossip_serve::{GossipService, GraphQuery, MetricsCounters, ServeConfig};
use gossip_shard::transport::{TransportBuilder, TransportMode};
use gossip_shard::BuildSharded;
use std::fmt::Write as _;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `gossip generate --family F [--n N] [--seed S] [--param P]`
    Generate {
        /// Family name (see [`make_graph`]).
        family: String,
        /// Size parameter.
        n: usize,
        /// RNG seed for random families.
        seed: u64,
        /// Family-specific extra parameter (e.g. BA attachment count).
        param: Option<u64>,
    },
    /// `gossip run --process P (--family F --n N | --graph FILE) [--seed S] [--trace]`
    Run {
        /// `push`, `pull`, or `hybrid`.
        process: String,
        /// Inline family, if no file given.
        family: Option<String>,
        /// Family size.
        n: usize,
        /// Edge-list file to load instead of a family.
        graph_file: Option<String>,
        /// Seed.
        seed: u64,
        /// Emit the full introduction trace as CSV after the summary.
        trace: bool,
        /// Family parameter.
        param: Option<u64>,
        /// Churn bursts to schedule (0 = static membership).
        churn: usize,
    },
    /// `gossip trials --process P --family F --n N [--trials T] [--seed S]`
    Trials {
        /// `push`, `pull`, or `hybrid`.
        process: String,
        /// Family name.
        family: String,
        /// Family size.
        n: usize,
        /// Number of Monte Carlo trials.
        trials: usize,
        /// Seed.
        seed: u64,
        /// Family parameter.
        param: Option<u64>,
    },
    /// `gossip exact --process P --edges "0-1,1-2" --n N`
    Exact {
        /// `push` or `pull`.
        process: String,
        /// Comma-separated `a-b` edges.
        edges: String,
        /// Node count.
        n: usize,
    },
    /// `gossip directed --family F --n N [--seed S]`
    Directed {
        /// `cycle`, `thm14`, `thm15`, or `gnp`.
        family: String,
        /// Size.
        n: usize,
        /// Seed.
        seed: u64,
    },
    /// `gossip serve --process P --family F --n N [--rounds R] [--shards K]
    /// [--snapshot-every E] [--seed S]`
    Serve {
        /// `push`, `pull`, or `hybrid`.
        process: String,
        /// Family name.
        family: String,
        /// Family size.
        n: usize,
        /// Round budget for the resident engine.
        rounds: u64,
        /// Shard count; 1 selects the sequential arena engine, >1 the
        /// multi-shard engine.
        shards: usize,
        /// Snapshot publication cadence, in rounds.
        snapshot_every: u64,
        /// Seed.
        seed: u64,
        /// Family parameter.
        param: Option<u64>,
        /// Churn bursts to schedule (0 = static membership).
        churn: usize,
        /// Shard transport: `inproc` (shared memory), `uds` (one OS
        /// process per shard over Unix domain sockets), `udp` (datagram
        /// cluster with a static peer table), or `lossy` (the datagram
        /// cluster on loopback with seeded drop/duplicate injection).
        transport: Transport,
        /// `--transport udp` only: address the coordinator binds
        /// (default `127.0.0.1:0`).
        bind: Option<String>,
        /// `--transport udp` only: comma-separated worker addresses
        /// (shards 1..K; default auto-assigned loopback ports).
        peers: Option<String>,
    },
    /// `gossip help`
    Help,
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
  gossip exact --protocol push|pull --n N --edges \"0-1,1-2\" exact E[rounds] (n<=5)
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
        let sub = it.next().map(String::as_str).unwrap_or("help");
        let mut family: Option<String> = None;
        let mut process: Option<String> = None;
        let mut graph_file: Option<String> = None;
        let mut edges: Option<String> = None;
        let mut n: Option<usize> = None;
        let mut seed = 42u64;
        let mut trials = 16usize;
        let mut trace = false;
        let mut param: Option<u64> = None;
        let mut rounds = 128u64;
        let mut shards = 1usize;
        let mut snapshot_every = 1u64;
        let mut churn = 0usize;
        let mut transport = Transport::Inproc;
        let mut bind: Option<String> = None;
        let mut peers: Option<String> = None;

        while let Some(flag) = it.next() {
            let mut take = || -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--family" => family = Some(take()?.clone()),
                // --protocol is the registry-facing name; --process is the
                // historical alias. Both resolve through RuleId::parse.
                "--process" | "--protocol" => process = Some(take()?.clone()),
                "--graph" => graph_file = Some(take()?.clone()),
                "--edges" => edges = Some(take()?.clone()),
                "--n" => n = Some(take()?.parse().map_err(|_| "--n needs an integer")?),
                "--seed" => seed = take()?.parse().map_err(|_| "--seed needs an integer")?,
                "--trials" => trials = take()?.parse().map_err(|_| "--trials needs an integer")?,
                "--param" => param = Some(take()?.parse().map_err(|_| "--param needs an integer")?),
                "--rounds" => {
                    rounds = take()?.parse().map_err(|_| "--rounds needs an integer")?;
                }
                "--shards" => {
                    shards = take()?.parse().map_err(|_| "--shards needs an integer")?;
                }
                "--snapshot-every" => {
                    snapshot_every = take()?
                        .parse()
                        .map_err(|_| "--snapshot-every needs an integer")?;
                }
                "--churn" => {
                    churn = take()?.parse().map_err(|_| "--churn needs an integer")?;
                }
                "--transport" => transport = Transport::parse(take()?)?,
                "--bind" => bind = Some(take()?.clone()),
                "--peers" => peers = Some(take()?.clone()),
                "--trace" => trace = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }

        if transport != Transport::Inproc && sub != "serve" {
            return Err("--transport only applies to serve".into());
        }
        if (bind.is_some() || peers.is_some()) && transport != Transport::Udp {
            return Err("--bind/--peers only apply to serve --transport udp".into());
        }

        match sub {
            "generate" => Ok(Command::Generate {
                family: family.ok_or("generate needs --family")?,
                n: n.ok_or("generate needs --n")?,
                seed,
                param,
            }),
            "run" => {
                if family.is_none() && graph_file.is_none() {
                    return Err("run needs --family or --graph".into());
                }
                Ok(Command::Run {
                    process: process.ok_or("run needs --protocol")?,
                    family,
                    n: n.unwrap_or(0),
                    graph_file,
                    seed,
                    trace,
                    param,
                    churn,
                })
            }
            "trials" => Ok(Command::Trials {
                process: process.ok_or("trials needs --protocol")?,
                family: family.ok_or("trials needs --family")?,
                n: n.ok_or("trials needs --n")?,
                trials,
                seed,
                param,
            }),
            "exact" => Ok(Command::Exact {
                process: process.ok_or("exact needs --protocol")?,
                edges: edges.ok_or("exact needs --edges")?,
                n: n.ok_or("exact needs --n")?,
            }),
            "directed" => Ok(Command::Directed {
                family: family.ok_or("directed needs --family")?,
                n: n.ok_or("directed needs --n")?,
                seed,
            }),
            "serve" => {
                if transport != Transport::Inproc && shards < 2 {
                    return Err("--transport uds|lossy|udp needs --shards K > 1".into());
                }
                Ok(Command::Serve {
                    process: process.ok_or("serve needs --protocol")?,
                    family: family.ok_or("serve needs --family")?,
                    n: n.ok_or("serve needs --n")?,
                    rounds,
                    shards,
                    snapshot_every,
                    seed,
                    param,
                    churn,
                    transport,
                    bind,
                    peers,
                })
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(format!("unknown subcommand {other}")),
        }
    }
}

/// Builds an undirected graph from a family name.
pub fn make_graph(
    family: &str,
    n: usize,
    seed: u64,
    param: Option<u64>,
) -> Result<ArenaGraph, String> {
    let mut rng = gossip_core::rng::stream_rng(seed, 0xC11, 0);
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
            generators::tree_plus_random_edges(n, m, &mut rng)
        }
        "ws" => generators::watts_strogatz(n, param.unwrap_or(3) as usize, 0.1, &mut rng),
        "ba" => generators::barabasi_albert(n, param.unwrap_or(2) as usize, &mut rng),
        "hypercube" => generators::hypercube(param.unwrap_or_else(|| n.ilog2() as u64) as u32),
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
    Ok(match family {
        "cycle" => generators::directed_cycle(n),
        "thm14" => generators::theorem14_graph(n.next_multiple_of(4)),
        "thm15" => generators::theorem15_graph(if n.is_multiple_of(2) { n } else { n + 1 }),
        "gnp" => generators::directed_gnp_strong(n, (8.0 / n as f64).min(0.9), &mut rng),
        other => return Err(format!("unknown directed family {other}")),
    })
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

/// Runs an engine behind a [`GossipService`] for the configured budget and
/// summarizes what the final snapshot serves. One metrics plugin rides the
/// loop to demonstrate the listener surface end to end.
fn serve_report<E>(engine: E, cfg: ServeConfig) -> String
where
    E: RoundEngine + Send + 'static,
    E::Graph: GraphQuery + 'static,
{
    let (metrics_listener, metrics) = MetricsCounters::new();
    let svc = GossipService::spawn_with(engine, cfg, ListenerSet::new().with(metrics_listener));
    let handle = svc.handle();
    let (_, outcome) = svc.join();
    let snap = handle.snapshot();
    let stats = snap.stats();
    format!(
        "rounds = {}, epochs = {}, edges = {}, coverage = {:.4}, \
         degree min/mean/max = {}/{:.1}/{}, added = {}",
        outcome.rounds,
        outcome.epochs,
        stats.edges,
        stats.coverage,
        stats.min_degree,
        stats.mean_degree,
        stats.max_degree,
        metrics.added.load(std::sync::atomic::Ordering::Acquire),
    )
}

/// Executes a command, returning its stdout payload.
pub fn execute(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),

        Command::Generate {
            family,
            n,
            seed,
            param,
        } => {
            let g = make_graph(family, *n, *seed, *param)?;
            out.push_str(&gio::write_undirected(&g));
        }

        Command::Run {
            process,
            family,
            n,
            graph_file,
            seed,
            trace,
            param,
            churn,
        } => {
            let g = match graph_file {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    gio::parse_undirected(&text).map_err(|e| e.to_string())?
                }
                None => make_graph(family.as_ref().unwrap(), *n, *seed, *param)?,
            };
            let mut check = ComponentwiseComplete::for_graph(&g);
            let nf = g.n() as f64;
            let n_nodes = g.n();
            let mut t = DiscoveryTrace::default();
            let id = RuleId::parse(process)?;
            // Under churn a loaded disconnected graph can end up with a
            // rejoined node bootstrapped outside its original component,
            // making the componentwise target unreachable — cap the run
            // instead of spinning forever. Static runs keep the unbounded
            // budget they always had.
            let budget = if *churn > 0 { 100_000 } else { u64::MAX };
            let (outcome, mem) = with_rule!(id, |rule| {
                let mut engine = Engine::new(g, rule, *seed);
                if *churn > 0 {
                    engine = engine.with_membership(churn_plan(n_nodes, *churn, *seed));
                }
                let outcome = engine.run_traced(&mut check, budget, &mut t);
                (outcome, engine.membership_stats())
            });
            let _ = writeln!(
                out,
                "process = {process}, rounds = {}, final edges = {}, rounds / n log² n = {:.4}",
                outcome.rounds,
                outcome.final_edges,
                outcome.rounds as f64 / (nf * nf.ln() * nf.ln()).max(1.0),
            );
            if *churn > 0 {
                let _ = writeln!(
                    out,
                    "churn: bursts = {churn}, leaves = {}, joins = {}, edges removed = {}, \
                     bootstrap edges = {}",
                    mem.leaves, mem.joins, mem.edges_removed, mem.edges_added,
                );
            }
            if *trace {
                out.push_str(&t.to_csv());
            }
        }

        Command::Trials {
            process,
            family,
            n,
            trials,
            seed,
            param,
        } => {
            let g = make_graph(family, *n, *seed, *param)?;
            let cfg = TrialConfig {
                trials: *trials,
                base_seed: *seed,
                max_rounds: u64::MAX,
                parallel: true,
            };
            let id = RuleId::parse(process)?;
            let rounds = with_rule!(id, |rule| convergence_rounds(
                &g,
                rule,
                ComponentwiseComplete::for_graph,
                &cfg
            ));
            let s = Summary::of_rounds(&rounds);
            let _ = writeln!(
                out,
                "{process} on {family}(n={n}): trials = {}, mean = {:.1} ± {:.1}, \
                 median = {:.1}, min = {}, max = {}",
                s.count, s.mean, s.ci95, s.median, s.min, s.max
            );
        }

        Command::Exact { process, edges, n } => {
            let g = parse_edges(edges, *n)?;
            let kind = match RuleId::parse(process)? {
                RuleId::Push => ProcessKind::Push,
                RuleId::Pull => ProcessKind::Pull,
                other => return Err(format!("exact supports push|pull, got {other}")),
            };
            if *n > gossip_analysis::markov::MAX_EXACT_N {
                return Err(format!(
                    "exact analysis supports n <= {}",
                    gossip_analysis::markov::MAX_EXACT_N
                ));
            }
            let e = exact_expected_rounds(&g, kind);
            let _ = writeln!(out, "exact E[rounds to fixed point] = {e:.6}");
        }

        Command::Serve {
            process,
            family,
            n,
            rounds,
            shards,
            snapshot_every,
            seed,
            param,
            churn,
            transport,
            bind,
            peers,
        } => {
            let g = make_graph(family, *n, *seed, *param)?;
            let cfg = ServeConfig {
                snapshot_every: *snapshot_every,
                budget: *rounds,
            };
            let id = RuleId::parse(process)?;
            let plan = (*churn > 0).then(|| churn_plan(g.n(), *churn, *seed));
            let line = if matches!(transport, Transport::Udp | Transport::Lossy) {
                // Datagram cluster: coordinator in this process, one
                // re-execed worker process per remaining peer-table slot
                // (`maybe_run_cluster_shard` diverts the copies).
                let g = ShardedArenaGraph::from_arena(&g, *shards);
                let mut b = ClusterBuilder::new(g, id, *seed).with_mode(TransportMode::Process);
                if let Some(plan) = plan.clone() {
                    b = b.with_membership(plan);
                }
                if *transport == Transport::Lossy {
                    b = b.with_loss(DatagramLoss {
                        seed: seed ^ 0x1055,
                        drop_per_mille: 50,
                        dup_per_mille: 30,
                    });
                }
                if let Some(addr) = bind {
                    b = b.with_bind(addr.parse().map_err(|e| format!("--bind {addr}: {e}"))?);
                }
                if let Some(list) = peers {
                    let table = list
                        .split(',')
                        .map(|a| a.parse().map_err(|e| format!("--peers {a}: {e}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    b = b.with_peers(table);
                }
                let engine = b.spawn().map_err(|e| format!("cluster spawn: {e}"))?;
                serve_report(engine, cfg)
            } else if *transport == Transport::Uds {
                // Serialized seam: one OS process per shard, framed
                // mailboxes over UDS. Worker copies of this binary never
                // reach the CLI — `maybe_run_worker` diverts them at the
                // top of `main`.
                let g = ShardedArenaGraph::from_arena(&g, *shards);
                let mut b = TransportBuilder::new(g, id, *seed).with_mode(TransportMode::Process);
                if let Some(plan) = plan.clone() {
                    b = b.with_membership(plan);
                }
                let engine = b.spawn().map_err(|e| format!("transport spawn: {e}"))?;
                serve_report(engine, cfg)
            } else if *shards > 1 {
                let g = ShardedArenaGraph::from_arena(&g, *shards);
                with_rule!(id, |rule| {
                    let mut b = EngineBuilder::new(g, rule, *seed);
                    if let Some(plan) = plan.clone() {
                        b = b.membership(plan);
                    }
                    serve_report(b.build_sharded(), cfg)
                })
            } else {
                with_rule!(id, |rule| {
                    let mut b = EngineBuilder::new(g, rule, *seed);
                    if let Some(plan) = plan.clone() {
                        b = b.membership(plan);
                    }
                    serve_report(b.build(), cfg)
                })
            };
            let churn_note = if *churn > 0 {
                format!(", churn={churn}")
            } else {
                String::new()
            };
            let transport_note = match transport {
                Transport::Inproc => String::new(),
                Transport::Uds => ", transport=uds".into(),
                Transport::Lossy => ", transport=lossy".into(),
                Transport::Udp => ", transport=udp".into(),
            };
            let _ = writeln!(
                out,
                "serve {process} on {family}(n={n}, shards={shards}{churn_note}{transport_note}): {line}"
            );
        }

        Command::Directed { family, n, seed } => {
            let g = make_directed(family, *n, *seed)?;
            let mut check = ClosureReached::for_graph(&g);
            let target = check.target_arcs();
            let n_actual = g.n() as f64;
            let mut engine = Engine::new(g, DirectedPull, *seed);
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate() {
        let cmd = Command::parse(&argv("generate --family star --n 8 --seed 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                family: "star".into(),
                n: 8,
                seed: 3,
                param: None
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
        match cmd {
            Command::Trials { trials, seed, .. } => {
                assert_eq!(trials, 16);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn help_is_default() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
        assert!(execute(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_emits_parseable_edge_list() {
        let out = execute(&Command::Generate {
            family: "cycle".into(),
            n: 6,
            seed: 1,
            param: None,
        })
        .unwrap();
        let g = gio::parse_undirected(&out).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn run_completes_and_traces() {
        let out = execute(&Command::Run {
            process: "push".into(),
            family: Some("star".into()),
            n: 8,
            graph_file: None,
            seed: 5,
            trace: true,
            param: None,
            churn: 0,
        })
        .unwrap();
        assert!(out.contains("process = push"));
        assert!(out.contains("round,introducer,a,b"));
        // Star on 8 gains C(7,2) = 21 edges: header + 21 trace lines + summary.
        assert_eq!(out.lines().count(), 1 + 1 + 21);
    }

    #[test]
    fn trials_reports_stats() {
        let out = execute(&Command::Trials {
            process: "pull".into(),
            family: "cycle".into(),
            n: 12,
            trials: 4,
            seed: 9,
            param: None,
        })
        .unwrap();
        assert!(out.contains("mean ="));
        assert!(out.contains("trials = 4"));
    }

    #[test]
    fn exact_matches_solver() {
        let out = execute(&Command::Exact {
            process: "push".into(),
            edges: "0-1,1-2".into(),
            n: 3,
        })
        .unwrap();
        assert!(
            out.contains("2.000000"),
            "path-3 push is exactly 2 rounds: {out}"
        );
        // n too large is a clean error, not a panic.
        let err = execute(&Command::Exact {
            process: "push".into(),
            edges: "0-1".into(),
            n: 9,
        })
        .unwrap_err();
        assert!(err.contains("n <="));
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
        let out = execute(&Command::Directed {
            family: "cycle".into(),
            n: 8,
            seed: 2,
        })
        .unwrap();
        assert!(out.contains("closure arcs = 56"));
    }

    #[test]
    fn serve_reports_final_snapshot_for_both_engines() {
        // Sequential (shards = 1) and sharded (shards = 4) behind the same
        // subcommand; 4 rounds of push on a 64-star is deterministic.
        let mut lines = Vec::new();
        for shards in [1usize, 4] {
            let out = execute(&Command::Serve {
                process: "push".into(),
                family: "star".into(),
                n: 64,
                rounds: 4,
                shards,
                snapshot_every: 2,
                seed: 11,
                param: None,
                churn: 0,
                transport: Transport::Inproc,
                bind: None,
                peers: None,
            })
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

    #[test]
    fn parse_serve_flags() {
        let cmd = Command::parse(&argv(
            "serve --process pull --family sparse --n 100 --rounds 9 --shards 2 --snapshot-every 3",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                rounds,
                shards,
                snapshot_every,
                ..
            } => {
                assert_eq!((rounds, shards, snapshot_every), (9, 2, 3));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(Command::parse(&argv("serve --family star --n 8")).is_err());
    }

    #[test]
    fn parse_transport_flag() {
        for (word, want) in Transport::NAMES {
            let cmd = Command::parse(&argv(&format!(
                "serve --protocol push --family star --n 32 --shards 2 --transport {word}"
            )))
            .unwrap();
            match cmd {
                Command::Serve { transport, .. } => assert_eq!(transport, want),
                other => panic!("wrong parse: {other:?}"),
            }
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
        let cmd = Command::parse(&argv(
            "serve --protocol push --family star --n 32 --shards 2 --transport udp \
             --bind 127.0.0.1:7000 --peers 127.0.0.1:7001",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                transport,
                bind,
                peers,
                ..
            } => {
                assert_eq!(transport, Transport::Udp);
                assert_eq!(bind.as_deref(), Some("127.0.0.1:7000"));
                assert_eq!(peers.as_deref(), Some("127.0.0.1:7001"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
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
        let cmd = Command::parse(&argv(
            "run --protocol push --family sparse --n 64 --churn 2",
        ))
        .unwrap();
        match cmd {
            Command::Run { churn, .. } => assert_eq!(churn, 2),
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = Command::parse(&argv(
            "serve --protocol pull --family star --n 32 --churn 1",
        ))
        .unwrap();
        match cmd {
            Command::Serve { churn, .. } => assert_eq!(churn, 1),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(
            Command::parse(&argv("run --protocol push --family star --n 8 --churn x")).is_err()
        );
    }

    #[test]
    fn run_under_churn_reports_membership_and_completes() {
        let out = execute(&Command::Run {
            process: "push".into(),
            family: Some("sparse".into()),
            n: 96,
            graph_file: None,
            seed: 7,
            trace: false,
            param: None,
            churn: 2,
        })
        .unwrap();
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
            let out = execute(&Command::Serve {
                process: "pull".into(),
                family: "sparse".into(),
                n: 128,
                rounds: 8,
                shards,
                snapshot_every: 2,
                seed: 13,
                param: None,
                churn: 1,
                transport: Transport::Inproc,
                bind: None,
                peers: None,
            })
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
}
