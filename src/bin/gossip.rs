//! The `gossip` CLI shim; all logic lives in `discovery_gossip::cli`.

fn main() {
    // `serve --transport uds` re-execs this binary once per shard;
    // a worker copy connects to its socket here and never reaches the CLI.
    discovery_gossip::shard::maybe_run_worker();
    // Likewise `serve --transport udp|lossy` re-execs one datagram shard
    // worker per peer-table slot.
    discovery_gossip::cluster::maybe_run_cluster_shard();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match discovery_gossip::cli::Command::parse(&args)
        .and_then(|c| discovery_gossip::cli::execute(&c))
    {
        Ok(Ok(output)) => print!("{output}"),
        // The command line was fine and the run failed: usage would mislead.
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", discovery_gossip::cli::USAGE);
            std::process::exit(2);
        }
    }
}
