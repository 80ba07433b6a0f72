//! # gossip-net
//!
//! A message-level P2P simulator for the paper's motivating application:
//! **resource discovery with `O(log n)`-bit messages** in an unreliable,
//! churning network.
//!
//! Where `gossip-core` runs the abstract graph processes, this crate runs
//! them as *protocols*: byte-encoded messages ([`message::Message`]) with
//! one-round latency, independent loss, and nodes that join and leave
//! without notice ([`churn::ChurnModel`]). The simulator reports coverage
//! (who knows whom among the living), staleness (contacts pointing at the
//! dead), and byte-accurate traffic — which is how experiment E12 validates
//! the paper's message-size claim against Name Dropper's `Θ(n)`-address
//! payloads.
//!
//! ```
//! use gossip_net::{ChurnModel, HeartbeatPushProtocol, NetConfig, Network, PushProtocol};
//! use gossip_graph::generators;
//!
//! let g0 = generators::star(16);
//! let mut net = Network::from_graph(&g0, NetConfig { drop_prob: 0.1, seed: 1 });
//! let (rounds, done, traffic) = net.run_until_coverage(&mut PushProtocol, 100_000);
//! assert!(done);
//! assert_eq!(traffic.max_message_bytes, 5); // one id + tag, always
//! # let _ = rounds;
//!
//! // Churn appends joiners to the peer table; heartbeat push evicts the
//! // departed contacts it stops hearing from.
//! let churn = ChurnModel { join_prob: 0.2, leave_prob: 0.2, bootstrap_contacts: 3, seed: 2 };
//! let mut heartbeat = HeartbeatPushProtocol::default();
//! for round in 0..200 {
//!     churn.apply(&mut net, round);
//!     net.step(&mut heartbeat);
//! }
//! assert!(net.peer_count() > 16);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]

pub mod churn;
pub mod message;
pub mod network;
pub mod protocols;

pub use churn::ChurnModel;
pub use message::Message;
pub use network::{Envelope, NetConfig, Network, NodeCtx, Peer, Protocol, Traffic};
pub use protocols::{HeartbeatPushProtocol, NameDropperProtocol, PullProtocol, PushProtocol};
