//! The shard transport's wire format: length-prefixed frames over the
//! vendored [`bytes`] shim, plus the mailbox reassembly layer.
//!
//! # Frame layout
//!
//! Every frame is `[u32 len][u8 kind][body]`, all integers little-endian;
//! `len` counts the kind byte plus the body. Twelve live kinds cover both
//! transports (bootstrap, round data, barriers, datagrams):
//!
//! | kind | frame        | direction           | body |
//! |------|--------------|---------------------|------|
//! | 1    | `Hello`      | worker → supervisor | shard id (the stream transport's bootstrap ack) |
//! | 2    | `Config`     | coordinator → worker | version, shard grid, seed, rule, parallel flag, membership events |
//! | 3    | *(retired)*  | —                   | was `Segment`, a whole segment snapshot in one O(m) frame; never reused, decodes as [`WireError::UnknownKind`] |
//! | 4    | `Start`      | supervisor → worker | round number |
//! | 5    | `Mail`       | both                | one chunk of a `(source, owner)` mailbox |
//! | 6    | `Proposed`   | worker → supervisor | propose barrier: proposal count + phase timings |
//! | 7    | `EndMail`    | supervisor → worker | "all forwarded mail for this round sent" |
//! | 8    | *(retired)*  | —                   | was the stream transport's `Nak`; never reused, decodes as [`WireError::UnknownKind`] |
//! | 9    | `Done`       | worker → supervisor | apply barrier: added count, timings, peak RSS |
//! | 10   | `Shutdown`   | supervisor → worker | end of run |
//! | 11   | `Ack`        | datagram peer ↔ peer | cumulative + selective datagram-seq acknowledgment |
//! | 12   | `NakRange`   | datagram peer ↔ peer | receiver-driven retransmit request for a seq range |
//! | 13   | `Fragment`   | datagram peer ↔ peer | one MTU-sized piece of an oversized frame |
//! | 14   | `SnapshotChunk` | coordinator → worker | one [`SegSnapshotChunk`] of a bootstrap segment's stream: segment, base, first row, last flag, canonical edge count, each row's `(len, cap)`, the rows' entries |
//!
//! Kinds 2 and 14 are the bootstrap stream and kinds 4–6, 9 and 10 the
//! round, the same on both carriers; kinds 1 and 7 are the stream (UDS)
//! hub's alone; kinds 11–13 belong to the datagram (`gossip-cluster`)
//! reliability layer, which wraps *any* frame in per-peer sequenced
//! datagrams — see [`fragment_frames`] and [`Defragmenter`] for how
//! frames larger than one datagram ride kind 13. No frame carries a
//! whole segment: the bootstrap snapshot travels in chunks of a bounded
//! entry count (a single row longer than the bound ships whole).
//!
//! A `(source, owner)` mailbox is split into [`MailFrame`]s of at most
//! [`MAX_FRAME_ENTRIES`] half-edges, numbered `seq = 0, 1, …` with the
//! final frame flagged `last` — empty mailboxes still send one empty
//! `last` frame, so a receiver always knows how many streams to expect.
//! Each half-edge is `(slot, row, other)`, 12 bytes; `slot` orders
//! proposals within the source's stream (the merge discards it after
//! dedup, so source-local slots preserve the bit-identical result — see
//! the determinism notes in the crate README).
//!
//! # Canonical ordering and determinism
//!
//! Both carriers deliver each link's frames exactly once and in send
//! order, so a [`MailboxAssembler`] is **in-order per stream** in both of
//! its modes: a `(source, owner)` stream's frames must arrive `seq = 0,
//! 1, …, last`, each is appended to its mailbox as it arrives, and a
//! repeated, skipped or late frame is a typed protocol violation — there
//! is no reorder buffer to size from a peer's `seq`. The modes differ
//! only *across* streams. The stream transport's hub delivers mail to
//! every destination in **canonical `(source shard, owner, chunk seq)`
//! order** — exactly the order the in-process engine concatenates
//! `mail[0][t], mail[1][t], …` — and its assemblers are `strict`: they
//! *assert* that order frame by frame. The datagram mesh has one in-order
//! link per source, so its assemblers are non-strict: streams of
//! different sources interleave however the links do. Mailboxes are keyed
//! by `(source, owner)` either way, so the grid handed back is canonical.
//!
//! Decoding is **checked end to end**: every getter is the non-panicking
//! `try_*` form from the bytes shim, truncated or trailing bytes are
//! [`WireError`]s, and allocation sizes are validated against the actual
//! byte count before any buffer is reserved — garbage input cannot OOM
//! the decoder.

use bytes::{Buf, BufMut, BytesMut};
use gossip_core::{MembershipEvent, RuleId};
use gossip_graph::{HalfEdge, NodeId, SegSnapshotChunk};
use serde::Serialize;

/// Wire protocol version, checked during the `Config` handshake.
/// Version 2 added the static peer table to `Config` and frame kinds
/// 11–14 for the datagram transport. Version 3 retired kind 8 (`Nak`).
/// Version 4 retired kind 3 (`Segment`: both carriers bootstrap from
/// kind 14 chunks) and `Config`'s `strict` byte, and requires every mail
/// stream in `seq` order. Version 5 retired `Config`'s peer table (no
/// receiver read it: a mesh worker is launched with its table) and
/// requires its parallel byte to be `0` or `1`. A peer that speaks an
/// older version fails the handshake.
pub const WIRE_VERSION: u32 = 5;

/// Maximum half-edges per [`MailFrame`] (12 KiB of entry payload) — one
/// propose chunk's worth, so frame `seq` numbers track chunk granularity.
pub const MAX_FRAME_ENTRIES: usize = 1024;

/// Upper bound on a single frame body (including after fragment
/// reassembly); a corrupted length prefix or a runaway fragment stream
/// fails fast instead of attempting an absurd allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// A decoding failure. Every malformed input maps to a typed error —
/// the decoder never panics and never trusts a length it has not checked
/// against the bytes actually present.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field it promised.
    Truncated,
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// Bytes left over after the last field of the frame.
    TrailingGarbage {
        /// How many undecoded bytes remained.
        extra: usize,
    },
    /// A field carried a structurally impossible value.
    Bad(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            WireError::Bad(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The bootstrap configuration a worker needs to reconstruct the
/// supervisor's engine state: shard identity, the `(n, shards)` plan, the
/// RNG seed, the proposal rule (by registry id), the parallelism flag,
/// and the full membership schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerConfig {
    /// This worker's shard index.
    pub shard: u32,
    /// Total shard count.
    pub shards: u32,
    /// Node count (fixes the [`gossip_graph::ShardPlan`]).
    pub n: u64,
    /// Experiment seed — workers replay the same `(seed, round, node)`
    /// RNG streams as the sequential engine.
    pub seed: u64,
    /// Proposal rule, by registry id.
    pub rule: RuleId,
    /// Whether the worker's propose phase runs on the rayon pool.
    pub parallel: bool,
    /// The membership plan's `(round, event)` schedule, applied by the
    /// worker at the same pre-increment round points as the supervisor.
    pub events: Vec<(u64, MembershipEvent)>,
}

/// One chunk of a `(source, owner)` mailbox.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MailFrame {
    /// Round the mailbox belongs to.
    pub round: u64,
    /// Source shard (whose nodes proposed these half-edges).
    pub source: u32,
    /// Owner shard (whose rows they touch).
    pub owner: u32,
    /// Chunk index within this mailbox's stream.
    pub seq: u32,
    /// Whether this is the stream's final chunk.
    pub last: bool,
    /// `(slot, row, other)` half-edges, in source-stream order.
    pub entries: Vec<HalfEdge>,
}

/// Propose-side round barrier: the worker finished proposing, routing,
/// and serializing its mail for `round`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProposedBarrier {
    /// The round.
    pub round: u64,
    /// The reporting shard.
    pub source: u32,
    /// Proposals its nodes made.
    pub proposed: u64,
    /// Wall nanoseconds of its propose phase.
    pub propose_ns: u64,
    /// Wall nanoseconds of its route phase.
    pub route_ns: u64,
    /// Wall nanoseconds spent encoding mail frames.
    pub serialize_ns: u64,
}

/// Apply-side round barrier: the worker merged every mailbox into its
/// replica and reports the owner-local result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DoneBarrier {
    /// The round.
    pub round: u64,
    /// The reporting shard.
    pub source: u32,
    /// New canonical edges in the worker's **own** segment this round
    /// (the supervisor cross-checks this against its own apply).
    pub added: u64,
    /// Wall nanoseconds of the worker's apply phase.
    pub apply_ns: u64,
    /// Wall nanoseconds the worker spent draining/reassembling mail.
    pub drain_ns: u64,
    /// The worker process's peak RSS in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
}

/// Datagram-sequence acknowledgment for one peer link: everything at or
/// below `cumulative` has been received, plus the listed out-of-order
/// seqs beyond it (strictly ascending). Acks are idempotent and ride
/// unsequenced datagrams — a lost ack just means the data is resent and
/// re-acknowledged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AckFrame {
    /// Highest seq such that every seq `1..=cumulative` was received.
    pub cumulative: u64,
    /// Received seqs beyond `cumulative`, strictly ascending.
    pub selective: Vec<u64>,
}

/// One MTU-sized piece of a frame too large for a single datagram. The
/// payloads of `index = 0, 1, …` concatenate back into the original
/// length-prefixed frame bytes; the final piece is flagged `last`. See
/// [`fragment_frames`] / [`Defragmenter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragmentFrame {
    /// Identifies the fragmented message on its link (monotonic per
    /// sender).
    pub msg_id: u64,
    /// Piece index within the message.
    pub index: u32,
    /// Whether this is the final piece.
    pub last: bool,
    /// The piece's bytes.
    pub payload: Vec<u8>,
}

/// One protocol frame. See the [module docs](self) for the layout table.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A stream-transport worker's bootstrap ack: which shard is ready.
    Hello {
        /// The connecting worker's shard index.
        shard: u32,
    },
    /// Bootstrap configuration.
    Config(WorkerConfig),
    /// Round kickoff.
    Start {
        /// The round about to execute (pre-increment counter).
        round: u64,
    },
    /// One mailbox chunk.
    Mail(MailFrame),
    /// Propose barrier.
    Proposed(ProposedBarrier),
    /// All forwarded mail for the round has been sent.
    EndMail {
        /// The round.
        round: u64,
    },
    /// Apply barrier.
    Done(DoneBarrier),
    /// End of run.
    Shutdown,
    /// Datagram-seq acknowledgment (datagram transport).
    Ack(AckFrame),
    /// Receiver-driven retransmit request for the datagram seqs
    /// `from..=to` on this link (datagram transport).
    NakRange {
        /// First missing seq (inclusive).
        from: u64,
        /// Last missing seq (inclusive).
        to: u64,
    },
    /// One piece of an oversized frame (datagram transport).
    Fragment(FragmentFrame),
    /// One chunk of a bootstrap segment's snapshot stream.
    SnapshotChunk {
        /// Segment index (shard order).
        segment: u32,
        /// The row-contiguous piece.
        chunk: SegSnapshotChunk,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_CONFIG: u8 = 2;
// Kind 3 (`Segment`) is retired: never renumbered, never reused.
const KIND_START: u8 = 4;
const KIND_MAIL: u8 = 5;
const KIND_PROPOSED: u8 = 6;
const KIND_ENDMAIL: u8 = 7;
// Kind 8 (`Nak`) is retired: never renumbered, never reused.
const KIND_DONE: u8 = 9;
const KIND_SHUTDOWN: u8 = 10;
const KIND_ACK: u8 = 11;
const KIND_NAK_RANGE: u8 = 12;
const KIND_FRAGMENT: u8 = 13;
const KIND_SNAPSHOT_CHUNK: u8 = 14;

fn rule_index(rule: RuleId) -> u8 {
    RuleId::ALL
        .iter()
        .position(|&r| r == rule)
        .expect("rule registered") as u8
}

fn put_mail_header(buf: &mut BytesMut, f: &MailFrame) {
    buf.put_u64_le(f.round);
    buf.put_u32_le(f.source);
    buf.put_u32_le(f.owner);
    buf.put_u32_le(f.seq);
    buf.put_u8(f.last as u8);
    buf.put_u32_le(f.entries.len() as u32);
}

/// A flag: one byte, `0` or `1`.
fn get_flag(cur: &mut &[u8]) -> Result<bool, WireError> {
    match cur.try_get_u8().ok_or(WireError::Truncated)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Bad("flag not a boolean")),
    }
}

impl Frame {
    /// Appends the full length-prefixed encoding of `self` to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        let len_at = buf.len();
        buf.put_u32_le(0); // patched below
        match self {
            Frame::Hello { shard } => {
                buf.put_u8(KIND_HELLO);
                buf.put_u32_le(*shard);
            }
            Frame::Config(c) => {
                buf.put_u8(KIND_CONFIG);
                buf.put_u32_le(WIRE_VERSION);
                buf.put_u32_le(c.shard);
                buf.put_u32_le(c.shards);
                buf.put_u64_le(c.n);
                buf.put_u64_le(c.seed);
                buf.put_u8(rule_index(c.rule));
                buf.put_u8(c.parallel as u8);
                buf.put_u32_le(c.events.len() as u32);
                for (round, ev) in &c.events {
                    buf.put_u64_le(*round);
                    match ev {
                        MembershipEvent::Join { node, contacts } => {
                            buf.put_u8(0);
                            buf.put_u32_le(node.0);
                            buf.put_u32_le(contacts.len() as u32);
                            for c in contacts {
                                buf.put_u32_le(c.0);
                            }
                        }
                        MembershipEvent::Leave { node } => {
                            buf.put_u8(1);
                            buf.put_u32_le(node.0);
                        }
                    }
                }
            }
            Frame::Start { round } => {
                buf.put_u8(KIND_START);
                buf.put_u64_le(*round);
            }
            Frame::Mail(f) => {
                buf.put_u8(KIND_MAIL);
                put_mail_header(buf, f);
                for &(slot, row, other) in &f.entries {
                    buf.put_u32_le(slot);
                    buf.put_u32_le(row.0);
                    buf.put_u32_le(other.0);
                }
            }
            Frame::Proposed(b) => {
                buf.put_u8(KIND_PROPOSED);
                buf.put_u64_le(b.round);
                buf.put_u32_le(b.source);
                buf.put_u64_le(b.proposed);
                buf.put_u64_le(b.propose_ns);
                buf.put_u64_le(b.route_ns);
                buf.put_u64_le(b.serialize_ns);
            }
            Frame::EndMail { round } => {
                buf.put_u8(KIND_ENDMAIL);
                buf.put_u64_le(*round);
            }
            Frame::Done(b) => {
                buf.put_u8(KIND_DONE);
                buf.put_u64_le(b.round);
                buf.put_u32_le(b.source);
                buf.put_u64_le(b.added);
                buf.put_u64_le(b.apply_ns);
                buf.put_u64_le(b.drain_ns);
                buf.put_u64_le(b.peak_rss_bytes);
            }
            Frame::Shutdown => buf.put_u8(KIND_SHUTDOWN),
            Frame::Ack(a) => {
                buf.put_u8(KIND_ACK);
                buf.put_u64_le(a.cumulative);
                buf.put_u32_le(a.selective.len() as u32);
                for &seq in &a.selective {
                    buf.put_u64_le(seq);
                }
            }
            Frame::NakRange { from, to } => {
                buf.put_u8(KIND_NAK_RANGE);
                buf.put_u64_le(*from);
                buf.put_u64_le(*to);
            }
            Frame::Fragment(f) => {
                buf.put_u8(KIND_FRAGMENT);
                buf.put_u64_le(f.msg_id);
                buf.put_u32_le(f.index);
                buf.put_u8(f.last as u8);
                buf.put_u32_le(f.payload.len() as u32);
                buf.put_slice(&f.payload);
            }
            Frame::SnapshotChunk { segment, chunk } => {
                buf.put_u8(KIND_SNAPSHOT_CHUNK);
                buf.put_u32_le(*segment);
                buf.put_u64_le(chunk.base);
                buf.put_u32_le(chunk.row_start);
                buf.put_u8(chunk.last as u8);
                buf.put_u64_le(chunk.m_canonical);
                buf.put_u32_le(chunk.len_cap.len() as u32);
                for &(l, c) in &chunk.len_cap {
                    buf.put_u32_le(l);
                    buf.put_u32_le(c);
                }
                for id in &chunk.entries {
                    buf.put_u32_le(id.0);
                }
            }
        }
        let body = (buf.len() - len_at - 4) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&body.to_le_bytes());
    }

    /// Decodes one frame from its body (`kind` byte onward — the length
    /// prefix has already been consumed by the stream reader). The body
    /// must be consumed exactly; trailing bytes are an error.
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut cur: &[u8] = body;
        let kind = cur.try_get_u8().ok_or(WireError::Truncated)?;
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                shard: cur.try_get_u32_le().ok_or(WireError::Truncated)?,
            },
            KIND_CONFIG => {
                let version = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                if version != WIRE_VERSION {
                    return Err(WireError::Bad("wire version mismatch"));
                }
                let shard = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let shards = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let n = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let seed = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let rule_idx = cur.try_get_u8().ok_or(WireError::Truncated)?;
                let rule = *RuleId::ALL
                    .get(rule_idx as usize)
                    .ok_or(WireError::Bad("unknown rule id"))?;
                let parallel = get_flag(&mut cur)?;
                let count = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                // Each event costs at least 13 body bytes.
                if count > cur.remaining() / 13 {
                    return Err(WireError::Bad("event count exceeds frame size"));
                }
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    let round = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                    let ev = match cur.try_get_u8().ok_or(WireError::Truncated)? {
                        0 => {
                            let node = NodeId(cur.try_get_u32_le().ok_or(WireError::Truncated)?);
                            let k = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                            if k > cur.remaining() / 4 {
                                return Err(WireError::Bad("contact count exceeds frame size"));
                            }
                            let mut contacts = Vec::with_capacity(k);
                            for _ in 0..k {
                                contacts.push(NodeId(
                                    cur.try_get_u32_le().ok_or(WireError::Truncated)?,
                                ));
                            }
                            MembershipEvent::Join { node, contacts }
                        }
                        1 => MembershipEvent::Leave {
                            node: NodeId(cur.try_get_u32_le().ok_or(WireError::Truncated)?),
                        },
                        _ => return Err(WireError::Bad("unknown membership event kind")),
                    };
                    events.push((round, ev));
                }
                Frame::Config(WorkerConfig {
                    shard,
                    shards,
                    n,
                    seed,
                    rule,
                    parallel,
                    events,
                })
            }
            KIND_START => Frame::Start {
                round: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
            },
            KIND_MAIL => {
                let round = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let source = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let owner = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let seq = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let last = get_flag(&mut cur)?;
                let count = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                if cur.remaining() != count * 12 {
                    return Err(WireError::Bad("mail entry bytes mismatch"));
                }
                let mut entries = Vec::with_capacity(count);
                for chunk in cur.chunk().chunks_exact(12) {
                    let slot = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
                    let row = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
                    let other = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
                    entries.push((slot, NodeId(row), NodeId(other)));
                }
                cur.advance(count * 12);
                Frame::Mail(MailFrame {
                    round,
                    source,
                    owner,
                    seq,
                    last,
                    entries,
                })
            }
            KIND_PROPOSED => Frame::Proposed(ProposedBarrier {
                round: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                source: cur.try_get_u32_le().ok_or(WireError::Truncated)?,
                proposed: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                propose_ns: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                route_ns: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                serialize_ns: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
            }),
            KIND_ENDMAIL => Frame::EndMail {
                round: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
            },
            KIND_DONE => Frame::Done(DoneBarrier {
                round: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                source: cur.try_get_u32_le().ok_or(WireError::Truncated)?,
                added: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                apply_ns: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                drain_ns: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
                peak_rss_bytes: cur.try_get_u64_le().ok_or(WireError::Truncated)?,
            }),
            KIND_SHUTDOWN => Frame::Shutdown,
            KIND_ACK => {
                let cumulative = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let k = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                if k > cur.remaining() / 8 {
                    return Err(WireError::Bad("selective ack count exceeds frame size"));
                }
                let mut selective = Vec::with_capacity(k);
                let mut floor = cumulative;
                for _ in 0..k {
                    let seq = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                    if seq <= floor {
                        return Err(WireError::Bad("selective acks not ascending"));
                    }
                    floor = seq;
                    selective.push(seq);
                }
                Frame::Ack(AckFrame {
                    cumulative,
                    selective,
                })
            }
            KIND_NAK_RANGE => {
                let from = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let to = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                if from > to || from == 0 {
                    return Err(WireError::Bad("nak range empty or starts at seq 0"));
                }
                Frame::NakRange { from, to }
            }
            KIND_FRAGMENT => {
                let msg_id = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let index = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let last = get_flag(&mut cur)?;
                let len = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                if cur.remaining() != len {
                    return Err(WireError::Bad("fragment payload bytes mismatch"));
                }
                let payload = cur.chunk()[..len].to_vec();
                cur.advance(len);
                Frame::Fragment(FragmentFrame {
                    msg_id,
                    index,
                    last,
                    payload,
                })
            }
            KIND_SNAPSHOT_CHUNK => {
                let segment = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let base = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let row_start = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                let last = get_flag(&mut cur)?;
                let m_canonical = cur.try_get_u64_le().ok_or(WireError::Truncated)?;
                let rows = cur.try_get_u32_le().ok_or(WireError::Truncated)? as usize;
                if rows > cur.remaining() / 8 {
                    return Err(WireError::Bad("row count exceeds frame size"));
                }
                let mut len_cap = Vec::with_capacity(rows);
                let mut total = 0usize;
                for _ in 0..rows {
                    let l = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                    let c = cur.try_get_u32_le().ok_or(WireError::Truncated)?;
                    if l > c {
                        return Err(WireError::Bad("row len exceeds cap"));
                    }
                    total += l as usize;
                    len_cap.push((l, c));
                }
                // The entries are the frame's tail, exactly.
                if cur.remaining() != total * 4 {
                    return Err(WireError::Bad("snapshot chunk entry bytes mismatch"));
                }
                let entries = cur
                    .chunk()
                    .chunks_exact(4)
                    .map(|b| NodeId(u32::from_le_bytes(b.try_into().unwrap())))
                    .collect();
                cur.advance(total * 4);
                Frame::SnapshotChunk {
                    segment,
                    chunk: SegSnapshotChunk {
                        base,
                        row_start,
                        last,
                        m_canonical,
                        len_cap,
                        entries,
                    },
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        if cur.remaining() != 0 {
            return Err(WireError::TrailingGarbage {
                extra: cur.remaining(),
            });
        }
        Ok(frame)
    }
}

/// Splits one `(source, owner)` mailbox into its frame stream: chunks of
/// at most `per_frame` entries, `seq`-numbered, final frame flagged
/// `last`. An empty mailbox still yields one empty `last` frame — the
/// receiver counts streams, so silence is not an option.
pub fn mailbox_frames(
    round: u64,
    source: u32,
    owner: u32,
    entries: &[HalfEdge],
    per_frame: usize,
) -> Vec<MailFrame> {
    assert!(per_frame > 0, "per_frame must be positive");
    let chunks = entries.len().div_ceil(per_frame).max(1);
    (0..chunks)
        .map(|seq| {
            let lo = seq * per_frame;
            let hi = (lo + per_frame).min(entries.len());
            MailFrame {
                round,
                source,
                owner,
                seq: seq as u32,
                last: seq + 1 == chunks,
                entries: entries[lo..hi].to_vec(),
            }
        })
        .collect()
}

/// Splits one encoded frame (its full length-prefixed bytes) into
/// [`FragmentFrame`]s of at most `max_payload` bytes each, `index`-numbered
/// with the final piece flagged `last`. The datagram transport calls this
/// for any frame whose encoding exceeds one datagram; [`Defragmenter`]
/// inverts it.
pub fn fragment_frames(msg_id: u64, frame_bytes: &[u8], max_payload: usize) -> Vec<FragmentFrame> {
    assert!(max_payload > 0, "max_payload must be positive");
    let pieces = frame_bytes.len().div_ceil(max_payload).max(1);
    (0..pieces)
        .map(|i| {
            let lo = i * max_payload;
            let hi = (lo + max_payload).min(frame_bytes.len());
            FragmentFrame {
                msg_id,
                index: i as u32,
                last: i + 1 == pieces,
                payload: frame_bytes[lo..hi].to_vec(),
            }
        })
        .collect()
}

/// A structural violation in a fragment stream. The datagram transport's
/// per-peer windows deliver datagrams exactly once and in order, so any
/// of these means a corrupted or hostile stream — never a retransmit
/// artifact — and the connection is torn down rather than repaired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragmentError {
    /// A fragment of a different message arrived mid-reassembly.
    MsgIdMismatch {
        /// The arriving fragment's message id.
        got: u64,
        /// The in-progress message id.
        want: u64,
    },
    /// Fragment index out of order within its message.
    IndexMismatch {
        /// The arriving fragment's index.
        got: u32,
        /// The expected next index.
        want: u32,
    },
    /// A fragment for a message that already completed — e.g. a
    /// duplicated final fragment.
    AfterFinal {
        /// The completed message's id.
        msg_id: u64,
    },
    /// The reassembled message exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Bytes accumulated when the cap tripped.
        bytes: usize,
    },
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::MsgIdMismatch { got, want } => {
                write!(f, "fragment of message {got} inside message {want}")
            }
            FragmentError::IndexMismatch { got, want } => {
                write!(f, "fragment index {got}, expected {want}")
            }
            FragmentError::AfterFinal { msg_id } => {
                write!(f, "fragment after the final fragment of message {msg_id}")
            }
            FragmentError::TooLarge { bytes } => {
                write!(f, "reassembled message exceeds frame cap at {bytes} bytes")
            }
        }
    }
}

impl std::error::Error for FragmentError {}

/// Reassembles one link's fragment stream back into whole frame bytes.
///
/// One instance per peer link: the link's windows guarantee in-order
/// exactly-once delivery, so fragments of one message arrive contiguously
/// and each message's pieces arrive `0, 1, …, last` — anything else is a
/// [`FragmentError`].
#[derive(Debug, Default)]
pub struct Defragmenter {
    /// `(msg_id, next expected index)` of the in-progress message.
    current: Option<(u64, u32)>,
    buf: Vec<u8>,
    /// The most recently completed message, to name duplicated finals.
    completed: Option<u64>,
}

impl Defragmenter {
    /// An empty defragmenter awaiting a fragment with `index == 0`.
    pub fn new() -> Self {
        Defragmenter::default()
    }

    /// Feeds the next fragment. Returns the reassembled frame bytes once
    /// the `last` fragment of a message arrives, `None` while in
    /// progress.
    pub fn accept(&mut self, f: &FragmentFrame) -> Result<Option<Vec<u8>>, FragmentError> {
        match self.current {
            None => {
                if self.completed == Some(f.msg_id) {
                    return Err(FragmentError::AfterFinal { msg_id: f.msg_id });
                }
                if f.index != 0 {
                    return Err(FragmentError::IndexMismatch {
                        got: f.index,
                        want: 0,
                    });
                }
                self.current = Some((f.msg_id, 0));
                self.buf.clear();
            }
            Some((msg_id, next)) => {
                if f.msg_id != msg_id {
                    return Err(FragmentError::MsgIdMismatch {
                        got: f.msg_id,
                        want: msg_id,
                    });
                }
                if f.index != next {
                    return Err(FragmentError::IndexMismatch {
                        got: f.index,
                        want: next,
                    });
                }
            }
        }
        if self.buf.len() + f.payload.len() > MAX_FRAME_BYTES {
            return Err(FragmentError::TooLarge {
                bytes: self.buf.len() + f.payload.len(),
            });
        }
        self.buf.extend_from_slice(&f.payload);
        if f.last {
            self.completed = Some(f.msg_id);
            self.current = None;
            Ok(Some(std::mem::take(&mut self.buf)))
        } else {
            self.current = Some((f.msg_id, f.index + 1));
            Ok(None)
        }
    }
}

/// Reassembles the mail of one round at one destination.
///
/// Streams are keyed `(source, owner)`; the constructor fixes which
/// streams are *expected* (a worker expects every source but itself; the
/// supervisor expects exactly one source per worker link). Every carrier
/// delivers a link's frames exactly once and in send order, so each
/// stream is a **cursor**, not a reorder buffer: a frame is appended to
/// its mailbox iff its `seq` is the one the stream accepts next, and
/// anything else is an [`AssembleError`] — no buffer is ever sized by a
/// number the peer chose. Streams from different sources may interleave
/// freely, as the datagram mesh's one link per peer produces; `strict`
/// mode additionally asserts canonical order *across* streams — the
/// stream hub's contract.
#[derive(Debug)]
pub struct MailboxAssembler {
    shards: usize,
    round: u64,
    strict: bool,
    expected: Vec<bool>,
    /// The mail grid being filled, `grid[source][owner]`.
    grid: Vec<Vec<Vec<HalfEdge>>>,
    /// Per stream, the `seq` it accepts next; `None` once it is closed
    /// (its `last` frame came, or it has used every `seq`).
    next_seq: Vec<Option<u32>>,
    /// Strict mode: position in the canonical stream walk.
    cursor: usize,
}

/// A reassembly protocol violation: a frame that is not the next one of
/// an expected stream of this round (or, in strict mode, of the stream
/// canonical order is at).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// Frame belongs to a different round.
    WrongRound {
        /// The frame's round.
        got: u64,
        /// The assembler's round.
        want: u64,
    },
    /// Source or owner outside the shard grid, or a stream this
    /// destination does not expect.
    UnexpectedStream {
        /// The frame's source shard.
        source: u32,
        /// The frame's owner shard.
        owner: u32,
    },
    /// A `seq` the stream has already taken. No carrier delivers a mail
    /// frame twice, so this is a misbehaving peer in either mode.
    Duplicate {
        /// The duplicated frame's source.
        source: u32,
        /// The duplicated frame's owner.
        owner: u32,
        /// The duplicated sequence number.
        seq: u32,
    },
    /// A `seq` ahead of the one the stream accepts next (either mode),
    /// or a frame of a stream canonical order has not reached (strict).
    OutOfOrder {
        /// The frame's source.
        source: u32,
        /// The frame's owner.
        owner: u32,
        /// The frame's sequence number.
        seq: u32,
    },
    /// A frame for a stream that is already closed.
    BeyondLast {
        /// The frame's source.
        source: u32,
        /// The frame's owner.
        owner: u32,
        /// The offending sequence number.
        seq: u32,
    },
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::WrongRound { got, want } => {
                write!(f, "frame for round {got} in round {want}")
            }
            AssembleError::UnexpectedStream { source, owner } => {
                write!(f, "unexpected stream ({source} -> {owner})")
            }
            AssembleError::Duplicate { source, owner, seq } => {
                write!(f, "duplicate frame ({source} -> {owner}) seq {seq}")
            }
            AssembleError::OutOfOrder { source, owner, seq } => {
                write!(f, "out-of-order frame ({source} -> {owner}) seq {seq}")
            }
            AssembleError::BeyondLast { source, owner, seq } => {
                write!(f, "frame ({source} -> {owner}) seq {seq} beyond stream end")
            }
        }
    }
}

impl std::error::Error for AssembleError {}

impl MailboxAssembler {
    /// Assembler for a worker: expects every `(source, owner)` stream
    /// with `source != self_shard`.
    pub fn for_worker(shards: usize, self_shard: usize, round: u64, strict: bool) -> Self {
        let expected = (0..shards * shards)
            .map(|i| i / shards != self_shard)
            .collect();
        Self::with_expected(shards, round, strict, expected)
    }

    /// Assembler for one supervisor link: expects exactly the streams
    /// with `source == source_shard` (workers upload in canonical order,
    /// so this side is always strict).
    pub fn for_source(shards: usize, source_shard: usize, round: u64) -> Self {
        let expected = (0..shards * shards)
            .map(|i| i / shards == source_shard)
            .collect();
        Self::with_expected(shards, round, true, expected)
    }

    /// Assembler for the supervisor's whole round: expects every stream.
    /// It reads its worker links in shard order and each worker uploads
    /// in canonical order, so this side is always strict.
    pub fn for_relay(shards: usize, round: u64) -> Self {
        Self::with_expected(shards, round, true, vec![true; shards * shards])
    }

    fn with_expected(shards: usize, round: u64, strict: bool, expected: Vec<bool>) -> Self {
        let mut a = MailboxAssembler {
            shards,
            round,
            strict,
            expected,
            grid: vec![vec![Vec::new(); shards]; shards],
            next_seq: vec![Some(0); shards * shards],
            cursor: 0,
        };
        a.cursor = a.next_expected_from(0);
        a
    }

    fn idx(&self, source: u32, owner: u32) -> usize {
        source as usize * self.shards + owner as usize
    }

    /// First expected stream index at or after `from`.
    fn next_expected_from(&self, from: usize) -> usize {
        (from..self.expected.len())
            .find(|&i| self.expected[i])
            .unwrap_or(self.expected.len())
    }

    /// Feeds one mail frame: appended to its mailbox if it is the next
    /// frame of its stream, a typed error (and no change) otherwise.
    pub fn accept(&mut self, f: &MailFrame) -> Result<(), AssembleError> {
        if f.round != self.round {
            return Err(AssembleError::WrongRound {
                got: f.round,
                want: self.round,
            });
        }
        let (source, owner, seq) = (f.source, f.owner, f.seq);
        if source as usize >= self.shards
            || owner as usize >= self.shards
            || !self.expected[self.idx(source, owner)]
        {
            return Err(AssembleError::UnexpectedStream { source, owner });
        }
        let idx = self.idx(source, owner);
        let Some(next) = self.next_seq[idx] else {
            return Err(AssembleError::BeyondLast { source, owner, seq });
        };
        if seq < next {
            return Err(AssembleError::Duplicate { source, owner, seq });
        }
        if seq > next || (self.strict && idx != self.cursor) {
            return Err(AssembleError::OutOfOrder { source, owner, seq });
        }
        self.grid[source as usize][owner as usize].extend_from_slice(&f.entries);
        // Nothing can follow `seq = u32::MAX`, so that closes a stream too.
        self.next_seq[idx] = if f.last { None } else { seq.checked_add(1) };
        if self.strict && self.next_seq[idx].is_none() {
            // Advance the canonical cursor past the completed stream.
            self.cursor = self.next_expected_from(self.cursor + 1);
        }
        Ok(())
    }

    /// Whether every expected stream is fully received.
    pub fn is_complete(&self) -> bool {
        (0..self.shards).all(|s| self.source_complete(s))
    }

    /// Whether every expected stream from `source` is fully received —
    /// the condition its `Proposed` barrier asserts.
    pub fn source_complete(&self, source: usize) -> bool {
        let row = source * self.shards..(source + 1) * self.shards;
        self.expected[row.clone()]
            .iter()
            .zip(&self.next_seq[row])
            .all(|(&exp, next)| !exp || next.is_none())
    }

    /// Hands back the reassembled mail grid `mail[source][owner]`, each
    /// mailbox its stream's frames in `seq` order. Unexpected streams
    /// (e.g. the worker's own source row) come back empty. Panics if
    /// called before [`MailboxAssembler::is_complete`].
    pub fn into_mail(self) -> Vec<Vec<Vec<HalfEdge>>> {
        assert!(self.is_complete(), "into_mail on incomplete assembly");
        self.grid
    }
}

/// Cumulative transport counters, reported by the supervisor (and
/// serialized into the E19 experiment's JSON artifacts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct WireStats {
    /// Frames written by the supervisor (bootstrap + rounds + control).
    pub frames_sent: u64,
    /// Frames read by the supervisor.
    pub frames_received: u64,
    /// Bytes written by the supervisor, including length prefixes.
    pub bytes_sent: u64,
    /// Bytes read by the supervisor, including length prefixes.
    pub bytes_received: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { shard: 3 },
            Frame::Config(WorkerConfig {
                shard: 1,
                shards: 4,
                n: 10_000,
                seed: 0xD15C0,
                rule: RuleId::Pull,
                parallel: true,
                events: vec![
                    (2, MembershipEvent::Leave { node: NodeId(7) }),
                    (
                        4,
                        MembershipEvent::Join {
                            node: NodeId(7),
                            contacts: vec![NodeId(1), NodeId(9)],
                        },
                    ),
                ],
            }),
            Frame::Start { round: 9 },
            Frame::Mail(MailFrame {
                round: 9,
                source: 0,
                owner: 3,
                seq: 2,
                last: true,
                entries: vec![(0, NodeId(3100), NodeId(4)), (5, NodeId(3101), NodeId(77))],
            }),
            Frame::Proposed(ProposedBarrier {
                round: 9,
                source: 2,
                proposed: 812,
                propose_ns: 1000,
                route_ns: 2000,
                serialize_ns: 3000,
            }),
            Frame::EndMail { round: 9 },
            Frame::Done(DoneBarrier {
                round: 9,
                source: 3,
                added: 55,
                apply_ns: 123,
                drain_ns: 456,
                peak_rss_bytes: 1 << 20,
            }),
            Frame::Shutdown,
            Frame::Ack(AckFrame {
                cumulative: 41,
                selective: vec![43, 44, 50],
            }),
            Frame::Ack(AckFrame {
                cumulative: 0,
                selective: vec![],
            }),
            Frame::NakRange { from: 42, to: 49 },
            Frame::Fragment(FragmentFrame {
                msg_id: 3,
                index: 2,
                last: true,
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
            }),
            Frame::Fragment(FragmentFrame {
                msg_id: 4,
                index: 0,
                last: false,
                payload: vec![],
            }),
            Frame::SnapshotChunk {
                segment: 1,
                chunk: SegSnapshotChunk {
                    base: 1024,
                    row_start: 16,
                    last: true,
                    m_canonical: 9,
                    len_cap: vec![(1, 2), (0, 4), (2, 2)],
                    entries: vec![NodeId(3), NodeId(8), NodeId(2049)],
                },
            },
        ]
    }

    fn encode_one(f: &Frame) -> Vec<u8> {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        buf.to_vec()
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        for f in sample_frames() {
            let wire = encode_one(&f);
            let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
            assert_eq!(len, wire.len() - 4, "length prefix covers the body");
            let back = Frame::decode(&wire[4..]).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncated_bodies_are_rejected_at_every_length() {
        for f in sample_frames() {
            let wire = encode_one(&f);
            let body = &wire[4..];
            for cut in 0..body.len() {
                let err = Frame::decode(&body[..cut]);
                assert!(err.is_err(), "decode accepted a {cut}-byte prefix of {f:?}");
            }
        }
    }

    #[test]
    fn trailing_and_garbage_bytes_are_rejected() {
        let mut wire = encode_one(&Frame::Start { round: 3 });
        wire.push(0xAB);
        assert_eq!(
            Frame::decode(&wire[4..]),
            Err(WireError::TrailingGarbage { extra: 1 })
        );
        assert_eq!(Frame::decode(&[0]), Err(WireError::UnknownKind(0)));
        assert_eq!(Frame::decode(&[99, 1, 2]), Err(WireError::UnknownKind(99)));
        // Kind 8 was `Nak` up to wire version 2: round, source, owner,
        // known-total flag + total, missing count + seqs. Retired, so a
        // well-formed old frame is as unknown as kind 99.
        let mut old_nak = BytesMut::new();
        old_nak.put_u8(8);
        old_nak.put_u64_le(9);
        old_nak.put_u32_le(1);
        old_nak.put_u32_le(0);
        old_nak.put_u8(1);
        old_nak.put_u32_le(4);
        old_nak.put_u32_le(2);
        old_nak.put_u32_le(1);
        old_nak.put_u32_le(3);
        assert_eq!(Frame::decode(&old_nak), Err(WireError::UnknownKind(8)));
        // Kind 3 was `Segment` up to wire version 3: segment index, base,
        // canonical edge count, then the arena image (row count, each
        // row's (len, cap), the entries). Retired the same way.
        let mut old_segment = BytesMut::new();
        old_segment.put_u8(3);
        old_segment.put_u32_le(0);
        old_segment.put_u64_le(0);
        old_segment.put_u64_le(1);
        old_segment.put_u32_le(2);
        for (len, cap) in [(1u32, 2u32), (1, 1)] {
            old_segment.put_u32_le(len);
            old_segment.put_u32_le(cap);
        }
        old_segment.put_u32_le(1);
        old_segment.put_u32_le(0);
        assert_eq!(Frame::decode(&old_segment), Err(WireError::UnknownKind(3)));
        assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
        // A mail frame whose count promises more entries than bytes.
        let mut buf = BytesMut::new();
        Frame::Mail(MailFrame {
            round: 1,
            source: 0,
            owner: 1,
            seq: 0,
            last: true,
            entries: vec![(0, NodeId(1), NodeId(2))],
        })
        .encode(&mut buf);
        let mut evil = buf.to_vec();
        let count_at = 4 + 1 + 8 + 4 + 4 + 4 + 1;
        evil[count_at..count_at + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(
            Frame::decode(&evil[4..]),
            Err(WireError::Bad("mail entry bytes mismatch"))
        );
    }

    #[test]
    fn a_config_from_another_wire_version_fails_the_handshake() {
        let wire = encode_one(&sample_frames()[1]);
        // The version is the body's first field, right after the kind.
        assert_eq!(wire[4], KIND_CONFIG);
        assert_eq!(wire[5..9], WIRE_VERSION.to_le_bytes());
        for old in [3u32, 4] {
            let mut v = wire.clone();
            v[5..9].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                Frame::decode(&v[4..]),
                Err(WireError::Bad("wire version mismatch")),
                "version {old}"
            );
        }
        assert!(Frame::decode(&wire[4..]).is_ok());
    }

    #[test]
    fn a_config_parallel_byte_other_than_zero_or_one_is_rejected() {
        let wire = encode_one(&sample_frames()[1]);
        // kind, version, shard, shards, n, seed, rule — then the flag.
        let at = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 1;
        assert_eq!(wire[at], 1, "the sample is parallel");
        let mut two = wire.clone();
        two[at] = 2;
        assert_eq!(
            Frame::decode(&two[4..]),
            Err(WireError::Bad("flag not a boolean"))
        );
        two[at] = 0;
        assert!(matches!(
            Frame::decode(&two[4..]),
            Ok(Frame::Config(WorkerConfig {
                parallel: false,
                ..
            }))
        ));
    }

    #[test]
    fn mailbox_frames_chunk_and_flag_last() {
        let entries: Vec<HalfEdge> = (0..2500u32)
            .map(|i| (i, NodeId(i), NodeId(i + 1)))
            .collect();
        let frames = mailbox_frames(7, 1, 2, &entries, MAX_FRAME_ENTRIES);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].entries.len(), 1024);
        assert_eq!(frames[2].entries.len(), 452);
        assert!(frames[2].last && !frames[0].last && !frames[1].last);
        assert!(frames.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        // Empty mailboxes still produce one empty last frame.
        let empty = mailbox_frames(7, 1, 2, &[], MAX_FRAME_ENTRIES);
        assert_eq!(empty.len(), 1);
        assert!(empty[0].last && empty[0].entries.is_empty());
    }

    #[test]
    fn strict_assembler_replays_canonical_order() {
        let shards = 3;
        let mut frames = Vec::new();
        for source in 0..shards as u32 {
            if source == 1 {
                continue; // destination's own shard
            }
            for owner in 0..shards as u32 {
                let entries: Vec<HalfEdge> = (0..(source + owner) * 3)
                    .map(|i| (i, NodeId(i), NodeId(i + 1)))
                    .collect();
                frames.extend(mailbox_frames(5, source, owner, &entries, 4));
            }
        }
        let mut asm = MailboxAssembler::for_worker(shards, 1, 5, true);
        for f in &frames {
            assert_eq!(asm.accept(f), Ok(()), "frame {f:?}");
        }
        assert!(asm.is_complete());
        let mail = asm.into_mail();
        assert_eq!(mail[0][2].len(), 6);
        assert_eq!(mail[2][1].len(), 9);
        assert!(mail[1].iter().all(Vec::is_empty), "own source row empty");
    }

    #[test]
    fn strict_assembler_rejects_disorder_and_duplicates() {
        let shards = 2;
        let entries: Vec<HalfEdge> = (0..10u32).map(|i| (i, NodeId(i), NodeId(i + 1))).collect();
        let frames = mailbox_frames(1, 1, 0, &entries, 4); // 3 frames
        let mut asm = MailboxAssembler::for_worker(shards, 0, 1, true);
        assert_eq!(
            asm.accept(&frames[1]),
            Err(AssembleError::OutOfOrder {
                source: 1,
                owner: 0,
                seq: 1
            })
        );
        assert_eq!(asm.accept(&frames[0]), Ok(()));
        assert_eq!(
            asm.accept(&frames[0]),
            Err(AssembleError::Duplicate {
                source: 1,
                owner: 0,
                seq: 0
            })
        );
        // Wrong round and unexpected stream are typed errors too.
        let mut wrong = frames[1].clone();
        wrong.round = 2;
        assert!(matches!(
            asm.accept(&wrong),
            Err(AssembleError::WrongRound { got: 2, want: 1 })
        ));
        let mut own = frames[1].clone();
        own.source = 0;
        assert!(matches!(
            asm.accept(&own),
            Err(AssembleError::UnexpectedStream { .. })
        ));
    }

    #[test]
    fn lossy_assembler_recovers_from_disorder_dup_and_loss() {
        // What a lossy carrier's repair layer leaves the assembler: each
        // source's streams in order, the sources interleaved. Non-strict
        // mode takes any such interleaving, here frame by frame.
        let shards = 3;
        let entries: Vec<HalfEdge> = (0..20u32).map(|i| (i, NodeId(i), NodeId(i + 1))).collect();
        let link = |source: u32| -> Vec<MailFrame> {
            (0..shards as u32)
                .flat_map(|owner| {
                    let n = (4 * source + 5 * owner) as usize;
                    mailbox_frames(3, source, owner, &entries[..n], 4)
                })
                .collect()
        };
        let (one, two) = (link(1), link(2));
        assert!(one.len() != two.len() && one.len().min(two.len()) > 3);
        let mut asm = MailboxAssembler::for_worker(shards, 0, 3, false);
        for i in 0..one.len().max(two.len()) {
            for f in [one.get(i), two.get(i)].into_iter().flatten() {
                assert_eq!(asm.accept(f), Ok(()), "frame {f:?}");
            }
        }
        assert!(asm.is_complete());
        let mail = asm.into_mail();
        for (source, owner) in [(1usize, 0usize), (1, 2), (2, 0), (2, 1), (2, 2)] {
            assert_eq!(
                mail[source][owner],
                entries[..4 * source + 5 * owner],
                "stream ({source} -> {owner})"
            );
        }
        assert!(mail[0].iter().all(Vec::is_empty), "own source row empty");

        // Within a stream nothing but the next frame is taken, in this
        // mode too, and a rejected frame leaves the assembly as it was.
        let frames = mailbox_frames(3, 1, 1, &entries, 4); // 5 frames
        let mut asm = MailboxAssembler::for_worker(2, 0, 3, false);
        use AssembleError::{BeyondLast, Duplicate, OutOfOrder};
        let (source, owner) = (1, 1);
        asm.accept(&frames[0]).unwrap();
        let skipped = asm.accept(&frames[2]);
        assert_eq!(
            skipped,
            Err(OutOfOrder {
                source,
                owner,
                seq: 2
            })
        );
        asm.accept(&frames[1]).unwrap();
        let repeated = asm.accept(&frames[0]);
        assert_eq!(
            repeated,
            Err(Duplicate {
                source,
                owner,
                seq: 0
            })
        );
        // The frame that made a reorder buffer allocate by the peer's
        // number: empty, `seq = u32::MAX`.
        let seq = u32::MAX;
        let hostile = MailFrame {
            seq,
            entries: vec![],
            ..frames[4].clone()
        };
        assert_eq!(asm.accept(&hostile), Err(OutOfOrder { source, owner, seq }));
        for f in &frames[2..] {
            asm.accept(f).unwrap();
        }
        assert!(!asm.source_complete(1), "stream (1 -> 0) still owed");
        assert_eq!(asm.accept(&hostile), Err(BeyondLast { source, owner, seq }));
        let seq = 4;
        assert_eq!(
            asm.accept(&frames[4]),
            Err(BeyondLast { source, owner, seq })
        );
        for f in mailbox_frames(3, 1, 0, &[], 4) {
            asm.accept(&f).unwrap();
        }
        assert!(asm.is_complete());
        assert_eq!(asm.into_mail()[1][1], entries, "seq-order concatenation");
    }

    #[test]
    fn supervisor_side_assembler_expects_one_source() {
        let shards = 3;
        let mut asm = MailboxAssembler::for_source(shards, 2, 4);
        for owner in 0..shards as u32 {
            for f in mailbox_frames(4, 2, owner, &[(0, NodeId(2048), NodeId(1))], 8) {
                asm.accept(&f).unwrap();
            }
        }
        assert!(asm.is_complete());
        let mut other = mailbox_frames(4, 0, 1, &[], 8);
        assert!(matches!(
            asm.accept(&other.remove(0)),
            Err(AssembleError::UnexpectedStream { .. })
        ));
    }

    #[test]
    fn fragments_roundtrip_any_frame_and_reject_stream_corruption() {
        // A big mail frame fragments at a small MTU and reassembles to
        // the identical bytes (and the identical decoded frame).
        let frame = Frame::Mail(MailFrame {
            round: 4,
            source: 1,
            owner: 0,
            seq: 0,
            last: true,
            entries: (0..500u32).map(|i| (i, NodeId(i), NodeId(i + 1))).collect(),
        });
        let bytes = encode_one(&frame);
        for mtu in [1, 13, 100, bytes.len(), 4 * bytes.len()] {
            let frags = fragment_frames(7, &bytes, mtu);
            assert_eq!(frags.len(), bytes.len().div_ceil(mtu));
            assert!(frags.last().unwrap().last);
            let mut d = Defragmenter::new();
            let mut out = None;
            for (i, f) in frags.iter().enumerate() {
                let got = d.accept(f).unwrap();
                assert_eq!(got.is_some(), i + 1 == frags.len());
                out = got;
            }
            let out = out.unwrap();
            assert_eq!(out, bytes, "mtu {mtu}");
            assert_eq!(Frame::decode(&out[4..]).unwrap(), frame);
        }
        // Stream corruption: skipped index, foreign msg_id, start not at
        // zero, and a duplicated final fragment are all typed errors.
        let frags = fragment_frames(9, &bytes, 64);
        assert!(frags.len() > 2);
        let mut d = Defragmenter::new();
        assert_eq!(
            d.accept(&frags[1]),
            Err(FragmentError::IndexMismatch { got: 1, want: 0 })
        );
        d.accept(&frags[0]).unwrap();
        assert_eq!(
            d.accept(&frags[2]),
            Err(FragmentError::IndexMismatch { got: 2, want: 1 })
        );
        let mut foreign = frags[1].clone();
        foreign.msg_id = 10;
        assert_eq!(
            d.accept(&foreign),
            Err(FragmentError::MsgIdMismatch { got: 10, want: 9 })
        );
        let mut d = Defragmenter::new();
        for f in &frags {
            d.accept(f).unwrap();
        }
        assert_eq!(
            d.accept(frags.last().unwrap()),
            Err(FragmentError::AfterFinal { msg_id: 9 }),
            "duplicate final fragment must be rejected"
        );
    }

    #[test]
    fn ack_and_nak_range_validate_structure() {
        // Non-ascending selective acks are rejected at decode time.
        let mut buf = BytesMut::new();
        Frame::Ack(AckFrame {
            cumulative: 10,
            selective: vec![12, 12],
        })
        .encode(&mut buf);
        assert_eq!(
            Frame::decode(&buf[4..]),
            Err(WireError::Bad("selective acks not ascending"))
        );
        // A selective ack at or below the cumulative floor is redundant
        // and rejected.
        buf.clear();
        Frame::Ack(AckFrame {
            cumulative: 10,
            selective: vec![10],
        })
        .encode(&mut buf);
        assert!(Frame::decode(&buf[4..]).is_err());
        // Inverted or zero-start nak ranges are rejected.
        for (from, to) in [(5u64, 4u64), (0, 3)] {
            buf.clear();
            Frame::NakRange { from, to }.encode(&mut buf);
            assert_eq!(
                Frame::decode(&buf[4..]),
                Err(WireError::Bad("nak range empty or starts at seq 0"))
            );
        }
    }

    #[test]
    fn beyond_last_frames_are_rejected() {
        let shards = 2;
        let mut asm = MailboxAssembler::for_worker(shards, 0, 1, false);
        let frames = mailbox_frames(1, 1, 0, &[(0, NodeId(1), NodeId(2))], 1);
        assert_eq!(frames.len(), 1);
        asm.accept(&frames[0]).unwrap();
        let mut beyond = frames[0].clone();
        beyond.seq = 3;
        beyond.last = false;
        assert!(matches!(
            asm.accept(&beyond),
            Err(AssembleError::BeyondLast { .. })
        ));
    }
}
