//! Per-peer reliability windows over one UDP socket: sequencing, ack /
//! nak, timeout + exponential-backoff retransmit, duplicate suppression,
//! and in-order delivery — the layer that turns a lossy datagram socket
//! into the FIFO frame channel the round protocol assumes.
//!
//! # Datagram format
//!
//! Every datagram is `[u32 sender shard][u64 seq][frame bytes]`, where
//! the frame bytes are one length-prefixed [`Frame`] exactly as a stream
//! transport would write it ([`parse_framed`] decodes both). `seq == 0`
//! marks an *unsequenced control datagram* — [`Frame::Ack`] and
//! [`Frame::NakRange`] ride outside the window (they are idempotent and
//! self-superseding, so losing one costs only time). Data datagrams are
//! numbered `1, 2, …` per directed link.
//!
//! # The window invariants
//!
//! * **Send side**: at most [`SEND_WINDOW`] datagrams in flight per link;
//!   the rest wait in a FIFO outbox. Each in-flight datagram carries a
//!   deadline; expiry retransmits it and doubles its RTO (capped). A
//!   received `Ack { cumulative, selective }` clears everything `≤
//!   cumulative` plus the named stragglers; a `NakRange` retransmits the
//!   still-unacked part of the range immediately, except what was
//!   retransmitted within the last [`NAK_INTERVAL`] (naks queue up while
//!   this side computes). Only timer expiries count toward
//!   [`MAX_ATTEMPTS`] — a peer that naks is alive. A first transmission
//!   the kernel refuses stays in the outbox.
//! * **Receive side**: per-link cumulative counter plus an out-of-order
//!   buffer. A datagram at or below the cumulative mark (or already
//!   buffered) is a duplicate — dropped, but re-acked, since a duplicate
//!   usually means the peer lost our ack. Frames are handed up **only in
//!   send order**: out-of-order arrivals are held until the gap closes.
//!   An arrival with `seq > max_seen + 1` exposes exactly the hole
//!   `max_seen + 1 ..= seq - 1`, and a `NakRange` names it **as that
//!   arrival is read**, so repair costs a round trip, not a timer. While
//!   the buffer stays non-empty every open hole is re-nak'd, each as its
//!   own exact range, once per [`NAK_INTERVAL`].
//! * **The ack clock**: [`Endpoint::pump`] reads whatever the socket has
//!   ready without blocking and answers at once — one ack per link that
//!   received data, then the first transmissions the acks just read made
//!   room for. It blocks (bounded by the socket read timeout) only when
//!   its first read found nothing.
//!
//! # Seeded loss, and why termination survives it
//!
//! [`DatagramLoss`] injects drops and duplicates as a **pure function of
//! `(seed, directed link, seq)`** — applied only to the *first*
//! transmission of a data datagram, never to retransmits and never to
//! control datagrams. Injected counts are therefore exactly reproducible
//! for a given run shape, while the retransmit machinery that repairs
//! them is free to be timing-dependent: every dropped datagram sits in
//! the send window until acked, so it is retransmitted clean and the
//! round always completes.
//!
//! # Fragmentation
//!
//! A frame larger than the MTU budget is split by
//! [`gossip_shard::wire::fragment_frames`] into `Fragment` frames, each
//! sent as its own sequenced datagram. Because delivery is in-order per
//! link, the receiving [`Defragmenter`] sees fragments contiguously and
//! the reassembled bytes re-enter [`parse_framed`] like any other frame.

use gossip_core::rng::stream_rng;
use gossip_shard::framed::parse_framed;
use gossip_shard::protocol_err;
use gossip_shard::wire::{fragment_frames, AckFrame, Defragmenter, Frame};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Default datagram payload budget, in bytes. Frames over this are
/// fragmented. Chosen under the classic 1500-byte Ethernet MTU so a
/// datagram (12-byte header included) survives real links unfragmented;
/// loopback would take 64 KiB, but the tests should exercise the same
/// fragmentation the cross-host deployment needs.
pub const DEFAULT_MTU: usize = 1400;

/// Maximum unacked data datagrams per directed link. Kept modest so a
/// fan-in of several links cannot overrun a default-sized UDP receive
/// buffer by itself (overruns still recover via retransmit — this just
/// keeps them rare).
pub const SEND_WINDOW: usize = 64;

/// First retransmit timeout; doubles per attempt up to [`MAX_RTO`].
pub const INITIAL_RTO: Duration = Duration::from_millis(20);
/// Backoff ceiling.
pub const MAX_RTO: Duration = Duration::from_millis(1000);
/// Retransmit attempts before the link is declared dead (~50 s of
/// backoff — far beyond any legitimate peer stall).
pub const MAX_ATTEMPTS: u32 = 60;
/// Spacing between re-naks of a hole that stays open (a fresh hole is
/// nak'd when seen); also how recently retransmitted a datagram must be
/// for a nak to skip it.
pub const NAK_INTERVAL: Duration = Duration::from_millis(10);
/// Cap on selective-ack entries per ack frame.
pub const SELECTIVE_ACK_CAP: usize = 64;

/// Seeded datagram fault injection: drop/duplicate verdicts as a pure
/// function of `(seed, directed link, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatagramLoss {
    /// Verdict stream seed.
    pub seed: u64,
    /// First-transmission drop probability, in thousandths.
    pub drop_per_mille: u16,
    /// First-transmission duplication probability, in thousandths.
    pub dup_per_mille: u16,
}

impl DatagramLoss {
    /// `(drop, duplicate)` verdict for a data datagram. Deterministic:
    /// depends only on the arguments and the configured rates.
    pub fn verdict(&self, link: u64, seq: u64) -> (bool, bool) {
        let mut rng = stream_rng(self.seed, link, seq);
        let roll: u32 = rng.random_range(0..1000);
        let dup_roll: u32 = rng.random_range(0..1000);
        (
            roll < u32::from(self.drop_per_mille),
            dup_roll < u32::from(self.dup_per_mille),
        )
    }
}

/// Counters for one endpoint (all links summed). The *deterministic*
/// rows — reproducible for a given `(graph, rule, seed, loss)` run —
/// are `data_datagrams`, `fragments_sent`, `injected_drops`, and
/// `injected_dups`; everything touched by wall-clock timing (retransmits,
/// acks, naks, raw socket counts) is honest telemetry only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Data datagrams queued for first transmission (deterministic).
    pub data_datagrams: u64,
    /// Fragment datagrams among them (deterministic).
    pub fragments_sent: u64,
    /// First transmissions suppressed by the loss shim (deterministic).
    pub injected_drops: u64,
    /// Extra copies sent by the loss shim (deterministic).
    pub injected_dups: u64,
    /// Datagrams that actually hit the socket (dups + retransmits
    /// included, injected drops excluded).
    pub datagrams_sent: u64,
    /// Datagrams read off the socket.
    pub datagrams_received: u64,
    /// Received data datagrams discarded as duplicates.
    pub duplicates_received: u64,
    /// Timer- or nak-driven retransmissions.
    pub retransmitted: u64,
    /// Ack control datagrams sent.
    pub acks_sent: u64,
    /// Ack control datagrams received.
    pub acks_received: u64,
    /// Nak control datagrams sent.
    pub naks_sent: u64,
    /// Nak control datagrams received.
    pub naks_received: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_received: u64,
}

/// `[u32 sender shard][u64 seq][frame bytes]`, seq 0 for a control frame.
fn datagram(shard: usize, seq: u64, frame_bytes: &[u8]) -> Vec<u8> {
    let mut dgram = Vec::with_capacity(12 + frame_bytes.len());
    dgram.extend_from_slice(&(shard as u32).to_le_bytes());
    dgram.extend_from_slice(&seq.to_le_bytes());
    dgram.extend_from_slice(frame_bytes);
    dgram
}

struct Pending {
    bytes: Vec<u8>,
    deadline: Instant,
    rto: Duration,
    /// Transmissions the timer has driven, the first included. A
    /// nak-driven resend is not one: a nak proves the peer alive.
    attempts: u32,
    /// Last retransmission, timer- or nak-driven.
    resent: Option<Instant>,
}

/// Per-directed-link state (both directions of one peer).
struct Link {
    /// Datagrams queued but not yet admitted to the window.
    outbox: VecDeque<Vec<u8>>,
    /// Seq of the next data datagram to be queued.
    next_seq: u64,
    /// In-flight (unacked) datagrams, keyed by seq.
    inflight: BTreeMap<u64, Pending>,
    /// Highest seq delivered in order.
    recv_cumulative: u64,
    /// Out-of-order arrivals held for FIFO delivery.
    recv_buffered: BTreeMap<u64, Vec<u8>>,
    /// Reassembles fragment runs (in-order delivery makes them contiguous).
    defrag: Defragmenter,
    /// An ack is owed at the end of this pump.
    ack_due: bool,
    /// When the open holes were last named: the sighting of the first
    /// one, then each re-nak.
    last_nak: Option<Instant>,
}

impl Link {
    fn new() -> Link {
        Link {
            outbox: VecDeque::new(),
            next_seq: 1,
            inflight: BTreeMap::new(),
            recv_cumulative: 0,
            recv_buffered: BTreeMap::new(),
            defrag: Defragmenter::new(),
            ack_due: false,
            last_nak: None,
        }
    }

    fn pending(&self) -> u64 {
        (self.outbox.len() + self.inflight.len()) as u64
    }
}

/// One shard's end of the datagram mesh: a single socket, one
/// reliability link (sliding window + ack/nak state) per peer in the
/// static table, and an in-order delivery queue of decoded frames.
pub struct Endpoint {
    socket: UdpSocket,
    shard: usize,
    peers: Vec<SocketAddr>,
    links: Vec<Link>,
    loss: Option<DatagramLoss>,
    mtu: usize,
    next_msg_id: u64,
    delivery: VecDeque<(usize, Frame)>,
    stats: EndpointStats,
    buf: Vec<u8>,
    enc: bytes::BytesMut,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("shard", &self.shard)
            .field("peers", &self.peers)
            .field("pending", &self.pending_datagrams())
            .finish()
    }
}

impl Endpoint {
    /// Wraps a bound socket as shard `shard` of the mesh described by
    /// `peers` (indexed by shard; `peers[shard]` is this socket's own
    /// address and is never dialed).
    pub fn new(
        socket: UdpSocket,
        shard: usize,
        peers: Vec<SocketAddr>,
        loss: Option<DatagramLoss>,
        mtu: usize,
    ) -> io::Result<Endpoint> {
        assert!(shard < peers.len(), "shard index outside the peer table");
        assert!(mtu > 0, "mtu must be positive");
        // Reads are non-blocking; the read timeout bounds only `pump`'s
        // idle wait, which doubles as the tick of the retransmit and
        // re-nak timers. The kernel rounds it up to its own tick: on a
        // 250 Hz kernel a "1 ms" timeout measures 6-10 ms.
        socket.set_read_timeout(Some(Duration::from_millis(1)))?;
        socket.set_nonblocking(true)?;
        let links = (0..peers.len()).map(|_| Link::new()).collect();
        Ok(Endpoint {
            socket,
            shard,
            peers,
            links,
            loss,
            mtu,
            next_msg_id: 1,
            delivery: VecDeque::new(),
            stats: EndpointStats::default(),
            buf: vec![0u8; 65_535],
            enc: bytes::BytesMut::new(),
        })
    }

    /// This endpoint's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The static peer table (shard-indexed).
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Counters so far.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Datagrams queued or in flight across all links — the "how much of
    /// what I sent is still unconfirmed" gauge the streamed-bootstrap
    /// overlap metric reads.
    pub fn pending_datagrams(&self) -> u64 {
        self.links.iter().map(Link::pending).sum()
    }

    /// Queues `frame` for reliable in-order delivery to peer `to`,
    /// fragmenting it if its encoding exceeds the MTU budget. Returns
    /// after queueing (and an opportunistic transmit pass) — delivery
    /// happens as [`Endpoint::pump`] runs.
    pub fn send_frame(&mut self, to: usize, frame: &Frame) -> io::Result<()> {
        assert!(to < self.peers.len() && to != self.shard, "bad destination");
        self.enc.clear();
        frame.encode(&mut self.enc);
        if self.enc.len() <= self.mtu {
            let bytes = self.enc.to_vec();
            self.queue_data(to, bytes, false);
        } else {
            let msg_id = self.next_msg_id;
            self.next_msg_id += 1;
            let frame_bytes = self.enc.to_vec();
            for frag in fragment_frames(msg_id, &frame_bytes, self.mtu) {
                self.enc.clear();
                Frame::Fragment(frag).encode(&mut self.enc);
                let bytes = self.enc.to_vec();
                self.queue_data(to, bytes, true);
            }
        }
        self.service_sends(to, Instant::now());
        Ok(())
    }

    fn queue_data(&mut self, to: usize, frame_bytes: Vec<u8>, fragment: bool) {
        let link = &mut self.links[to];
        let seq = link.next_seq;
        link.next_seq += 1;
        link.outbox
            .push_back(datagram(self.shard, seq, &frame_bytes));
        self.stats.data_datagrams += 1;
        if fragment {
            self.stats.fragments_sent += 1;
        }
    }

    /// Directed-link id for the loss shim: this shard's outbound lane to
    /// `to`, distinct from the reverse lane.
    fn link_id(&self, to: usize) -> u64 {
        (self.shard * self.peers.len() + to) as u64
    }

    /// Whether the kernel took the datagram. The socket is non-blocking,
    /// so a full send buffer refuses with `WouldBlock` (`ENOBUFS` on some
    /// stacks). For a retransmit or a control datagram any refusal is a
    /// drop — the timers repair it, and a persistently dead link fails
    /// via MAX_ATTEMPTS; a first transmission is held back instead (see
    /// `service_sends`).
    fn transmit(
        socket: &UdpSocket,
        stats: &mut EndpointStats,
        addr: SocketAddr,
        bytes: &[u8],
    ) -> bool {
        let sent = socket.send_to(bytes, addr).is_ok();
        if sent {
            stats.datagrams_sent += 1;
            stats.bytes_sent += bytes.len() as u64;
        }
        sent
    }

    /// Admits outbox datagrams to the window (first transmissions, where
    /// the loss shim applies) while there is room. One the kernel refuses
    /// is not in flight: it stays at the head of the outbox, seq and loss
    /// verdict unchanged, for the next pump.
    fn service_sends(&mut self, to: usize, now: Instant) {
        let link_id = self.link_id(to);
        let link = &mut self.links[to];
        while link.inflight.len() < SEND_WINDOW {
            let Some(dgram) = link.outbox.front() else {
                break;
            };
            let seq = u64::from_le_bytes(dgram[4..12].try_into().unwrap());
            let (drop, dup) = match self.loss {
                Some(l) => l.verdict(link_id, seq),
                None => (false, false),
            };
            if drop {
                self.stats.injected_drops += 1;
            } else {
                if !Self::transmit(&self.socket, &mut self.stats, self.peers[to], dgram) {
                    break;
                }
                if dup {
                    self.stats.injected_dups += 1;
                    Self::transmit(&self.socket, &mut self.stats, self.peers[to], dgram);
                }
            }
            let bytes = link.outbox.pop_front().expect("the front just read");
            link.inflight.insert(
                seq,
                Pending {
                    bytes,
                    deadline: now + INITIAL_RTO,
                    rto: INITIAL_RTO,
                    attempts: 1,
                    resent: None,
                },
            );
        }
    }

    /// Expired-timer retransmissions (always transmitted — the shim never
    /// touches a retransmit, which is what guarantees termination).
    fn service_retransmits(&mut self, now: Instant) -> io::Result<()> {
        for to in 0..self.peers.len() {
            if to == self.shard {
                continue;
            }
            let link = &mut self.links[to];
            for (seq, p) in link.inflight.iter_mut() {
                if p.deadline > now {
                    continue;
                }
                if p.attempts >= MAX_ATTEMPTS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "shard {}: peer {to} unresponsive (seq {seq} after {} attempts)",
                            self.shard, p.attempts
                        ),
                    ));
                }
                p.attempts += 1;
                p.rto = (p.rto * 2).min(MAX_RTO);
                p.deadline = now + p.rto;
                p.resent = Some(now);
                self.stats.retransmitted += 1;
                Self::transmit(&self.socket, &mut self.stats, self.peers[to], &p.bytes);
            }
        }
        Ok(())
    }

    fn send_control(&mut self, to: usize, frame: &Frame) {
        self.enc.clear();
        frame.encode(&mut self.enc);
        let dgram = datagram(self.shard, 0, &self.enc);
        Self::transmit(&self.socket, &mut self.stats, self.peers[to], &dgram);
    }

    fn send_nak(&mut self, to: usize, lo: u64, hi: u64) {
        self.send_control(to, &Frame::NakRange { from: lo, to: hi });
        self.stats.naks_sent += 1;
    }

    fn handle_control(&mut self, from: usize, frame: Frame) -> io::Result<()> {
        match frame {
            Frame::Ack(AckFrame {
                cumulative,
                selective,
            }) => {
                self.stats.acks_received += 1;
                let link = &mut self.links[from];
                link.inflight.retain(|&seq, _| seq > cumulative);
                for seq in selective {
                    link.inflight.remove(&seq);
                }
            }
            Frame::NakRange { from: lo, to: hi } => {
                self.stats.naks_received += 1;
                let now = Instant::now();
                let link = &mut self.links[from];
                for (_, p) in link.inflight.range_mut(lo..=hi) {
                    // Naks queue up while this side computes; the first
                    // repaired the hole the rest still name.
                    if p.resent.is_some_and(|t| now < t + NAK_INTERVAL) {
                        continue;
                    }
                    p.resent = Some(now);
                    p.rto = INITIAL_RTO;
                    p.deadline = now + INITIAL_RTO;
                    self.stats.retransmitted += 1;
                    Self::transmit(&self.socket, &mut self.stats, self.peers[from], &p.bytes);
                }
            }
            other => {
                return Err(protocol_err(format!(
                    "peer {from}: unsequenced datagram must be Ack/NakRange, got {other:?}"
                )))
            }
        }
        Ok(())
    }

    fn handle_data(&mut self, from: usize, seq: u64, frame_bytes: &[u8]) -> io::Result<()> {
        let link = &mut self.links[from];
        link.ack_due = true;
        if seq <= link.recv_cumulative || link.recv_buffered.contains_key(&seq) {
            self.stats.duplicates_received += 1;
            return Ok(());
        }
        let max_seen = link
            .recv_buffered
            .last_key_value()
            .map_or(link.recv_cumulative, |(&s, _)| s);
        if seq - 1 > max_seen {
            // This arrival exposes the hole below it: name it now.
            if link.recv_buffered.is_empty() {
                link.last_nak = Some(Instant::now());
            }
            self.send_nak(from, max_seen + 1, seq - 1);
        }
        let link = &mut self.links[from];
        link.recv_buffered.insert(seq, frame_bytes.to_vec());
        while let Some(bytes) = link.recv_buffered.remove(&(link.recv_cumulative + 1)) {
            link.recv_cumulative += 1;
            let frame = parse_framed(&bytes)?;
            match frame {
                Frame::Fragment(f) => {
                    if let Some(whole) = link.defrag.accept(&f).map_err(protocol_err)? {
                        self.delivery.push_back((from, parse_framed(&whole)?));
                    }
                }
                other => self.delivery.push_back((from, other)),
            }
        }
        Ok(())
    }

    /// One service pass, event-driven: every datagram the socket has
    /// ready (a bounded batch, read without blocking), then the response
    /// at once — expired-timer retransmits, one ack per link that
    /// received data, re-naks for holes still open, and the first
    /// transmissions the acks just read made room for. Only when the
    /// first read finds the socket empty does it block, for at most the
    /// read timeout, and it handles whatever wakes it before returning.
    pub fn pump(&mut self) -> io::Result<()> {
        for read in 0..128 {
            let mut got = self.socket.recv_from(&mut self.buf);
            if read == 0 && matches!(&got, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
                self.socket.set_nonblocking(false)?;
                got = self.socket.recv_from(&mut self.buf);
                self.socket.set_nonblocking(true)?;
            }
            let (len, addr) = match got {
                Ok(x) => x,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) => return Err(e),
            };
            if len < 12 {
                continue; // runt datagram: not ours, drop
            }
            self.stats.datagrams_received += 1;
            self.stats.bytes_received += len as u64;
            let from = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
            let seq = u64::from_le_bytes(self.buf[4..12].try_into().unwrap());
            if from >= self.peers.len() || from == self.shard {
                return Err(protocol_err(format!(
                    "datagram from unknown shard {from} ({addr})"
                )));
            }
            if seq == 0 {
                let frame = parse_framed(&self.buf[12..len])?;
                self.handle_control(from, frame)?;
            } else {
                let bytes = std::mem::take(&mut self.buf);
                let r = self.handle_data(from, seq, &bytes[12..len]);
                self.buf = bytes;
                r?;
            }
        }

        // Timers after the reads: an ack already in the socket must beat
        // the deadline it clears.
        let now = Instant::now();
        self.service_retransmits(now)?;
        for peer in 0..self.peers.len() {
            if peer == self.shard {
                continue;
            }
            let link = &mut self.links[peer];
            if link.ack_due {
                link.ack_due = false;
                let cumulative = link.recv_cumulative;
                let selective: Vec<u64> = link
                    .recv_buffered
                    .keys()
                    .take(SELECTIVE_ACK_CAP)
                    .copied()
                    .collect();
                self.send_control(
                    peer,
                    &Frame::Ack(AckFrame {
                        cumulative,
                        selective,
                    }),
                );
                self.stats.acks_sent += 1;
            }
            let link = &mut self.links[peer];
            if !link.recv_buffered.is_empty()
                && link.last_nak.is_none_or(|t| now >= t + NAK_INTERVAL)
            {
                // Holes that outlived their first nak: each gap between
                // consecutive buffered seqs, as its own exact range.
                link.last_nak = Some(now);
                let mut below = link.recv_cumulative;
                let holes: Vec<(u64, u64)> = link
                    .recv_buffered
                    .keys()
                    .filter_map(|&seq| {
                        let hole = (seq - below > 1).then_some((below + 1, seq - 1));
                        below = seq;
                        hole
                    })
                    .collect();
                for (lo, hi) in holes {
                    self.send_nak(peer, lo, hi);
                }
            }
            self.service_sends(peer, now);
        }
        Ok(())
    }

    /// Pops the next delivered frame without blocking beyond one pump.
    pub fn try_recv(&mut self) -> io::Result<Option<(usize, Frame)>> {
        if let Some(x) = self.delivery.pop_front() {
            return Ok(Some(x));
        }
        self.pump()?;
        Ok(self.delivery.pop_front())
    }

    /// Next delivered `(peer shard, frame)`, pumping the socket until one
    /// arrives or `timeout` elapses.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<(usize, Frame)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(x) = self.try_recv()? {
                return Ok(x);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("shard {}: no frame within {timeout:?}", self.shard),
                ));
            }
        }
    }

    /// Pumps until every queued datagram has been sent *and acked* (the
    /// clean-shutdown barrier), or `timeout` elapses.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        while self.pending_datagrams() > 0 {
            self.pump()?;
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "shard {}: {} datagrams still unacked after {timeout:?}",
                        self.shard,
                        self.pending_datagrams()
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_shard::wire::{mailbox_frames, MAX_FRAME_ENTRIES};

    fn pair() -> (Endpoint, Endpoint) {
        pair_with(None, DEFAULT_MTU)
    }

    fn pair_with(loss: Option<DatagramLoss>, mtu: usize) -> (Endpoint, Endpoint) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
        (
            Endpoint::new(a, 0, peers.clone(), loss, mtu).unwrap(),
            Endpoint::new(b, 1, peers, loss, mtu).unwrap(),
        )
    }

    /// Shuttles frames between two endpoints until `want` frames arrived
    /// at `b` (from a) or the deadline passes.
    fn shuttle(a: &mut Endpoint, b: &mut Endpoint, want: usize) -> Vec<Frame> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = Vec::new();
        while got.len() < want {
            assert!(
                Instant::now() < deadline,
                "shuttle stalled at {}",
                got.len()
            );
            a.pump().unwrap();
            while let Some((from, f)) = b.try_recv().unwrap() {
                assert_eq!(from, 0);
                got.push(f);
            }
        }
        got
    }

    #[test]
    fn frames_arrive_in_order_and_windows_drain() {
        let (mut a, mut b) = pair();
        for r in 0..2000u64 {
            a.send_frame(1, &Frame::Start { round: r }).unwrap();
        }
        let got = shuttle(&mut a, &mut b, 2000);
        for (r, f) in got.iter().enumerate() {
            assert_eq!(f, &Frame::Start { round: r as u64 });
        }
        // Acks flow back and clear the send window completely.
        a.drain(Duration::from_secs(10)).unwrap();
        assert_eq!(a.pending_datagrams(), 0);
        assert_eq!(a.stats().data_datagrams, 2000);
        assert_eq!(a.stats().injected_drops, 0);
        assert!(b.stats().acks_sent > 0);
        // Every ack beat the deadline it cleared: nothing sent twice.
        assert_eq!(a.stats().retransmitted, 0, "{:?}", a.stats());
        assert_eq!(b.stats().duplicates_received, 0, "{:?}", b.stats());
    }

    #[test]
    fn oversized_frames_fragment_and_reassemble() {
        let entries: Vec<_> = (0..3000u32)
            .map(|i| (i, gossip_graph::NodeId(i), gossip_graph::NodeId(i + 1)))
            .collect();
        let frames = mailbox_frames(7, 0, 1, &entries, MAX_FRAME_ENTRIES);
        let (mut a, mut b) = pair_with(None, 500);
        for f in &frames {
            a.send_frame(1, &Frame::Mail(f.clone())).unwrap();
        }
        let got = shuttle(&mut a, &mut b, frames.len());
        for (f, g) in frames.iter().zip(&got) {
            assert_eq!(g, &Frame::Mail(f.clone()));
        }
        assert!(a.stats().fragments_sent > 0, "mtu 500 must fragment");
    }

    #[test]
    fn seeded_loss_recovers_and_injects_deterministically() {
        let loss = DatagramLoss {
            seed: 0xC0FFEE,
            drop_per_mille: 250,
            dup_per_mille: 100,
        };
        let run = || {
            let (mut a, mut b) = pair_with(Some(loss), DEFAULT_MTU);
            for r in 0..120u64 {
                a.send_frame(1, &Frame::Start { round: r }).unwrap();
            }
            let got = shuttle(&mut a, &mut b, 120);
            for (r, f) in got.iter().enumerate() {
                assert_eq!(
                    f,
                    &Frame::Start { round: r as u64 },
                    "order broke under loss"
                );
            }
            a.drain(Duration::from_secs(30)).unwrap();
            (a.stats().clone(), b.stats().clone())
        };
        let (a1, b1) = run();
        let (a2, _) = run();
        assert!(a1.injected_drops > 0, "25% drop never fired: {a1:?}");
        assert!(a1.injected_dups > 0);
        assert!(a1.retransmitted >= a1.injected_drops);
        assert!(b1.duplicates_received > 0);
        // The injected fault pattern is a pure function of (seed, link,
        // seq): identical across runs even though retransmit timing is not.
        assert_eq!(a1.injected_drops, a2.injected_drops);
        assert_eq!(a1.injected_dups, a2.injected_dups);
        assert_eq!(a1.data_datagrams, a2.data_datagrams);
    }

    /// Shard 0 of a two-shard table whose shard 1 is a raw socket the
    /// test scripts by hand.
    fn scripted_peer() -> (Endpoint, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.connect(a.local_addr().unwrap()).unwrap();
        let peers = vec![a.local_addr().unwrap(), raw.local_addr().unwrap()];
        (Endpoint::new(a, 0, peers, None, DEFAULT_MTU).unwrap(), raw)
    }

    /// What shard `shard` would put on the wire for `frame` at `seq`.
    fn scripted(shard: usize, seq: u64, frame: &Frame) -> Vec<u8> {
        let mut enc = bytes::BytesMut::new();
        frame.encode(&mut enc);
        datagram(shard, seq, &enc)
    }

    /// The control frames the endpoint has sent the raw peer since the
    /// last call (loopback delivers inside `send_to`, so none is still on
    /// its way).
    fn controls(raw: &UdpSocket) -> Vec<Frame> {
        let mut buf = [0u8; 2048];
        let mut got = Vec::new();
        raw.set_nonblocking(true).unwrap();
        while let Ok(len) = raw.recv(&mut buf) {
            assert_eq!(buf[..12], [0u8; 12], "from shard 0, unsequenced");
            got.push(parse_framed(&buf[12..len]).unwrap());
        }
        got
    }

    fn naks(sent: &[Frame]) -> Vec<(u64, u64)> {
        sent.iter()
            .filter_map(|f| match f {
                Frame::NakRange { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_gap_is_nakd_on_sight_and_renakd_only_after_the_interval() {
        let (mut a, raw) = scripted_peer();
        for seq in [1u64, 4, 5, 9] {
            raw.send(&scripted(1, seq, &Frame::Start { round: seq }))
                .unwrap();
        }
        let t = Instant::now();
        a.pump().unwrap();
        let took = t.elapsed();
        // One nak per hole, each naming exactly the missing seqs, in the
        // pump that read the arrivals exposing them — no timer involved.
        let sent = controls(&raw);
        assert!(
            naks(&sent) == [(2, 3), (6, 8)] || took >= NAK_INTERVAL,
            "fresh holes: {sent:?}"
        );
        assert!(sent.contains(&Frame::Ack(AckFrame {
            cumulative: 1,
            selective: vec![4, 5, 9],
        })));
        assert_eq!(a.try_recv().unwrap(), Some((1, Frame::Start { round: 1 })));

        // The holes stay open: they are named again, but never sooner
        // than NAK_INTERVAL after the sighting.
        let named = a.links[1].last_nak.expect("a hole is open");
        let first = a.stats().naks_sent;
        let deadline = Instant::now() + Duration::from_secs(10);
        while a.stats().naks_sent == first {
            assert!(Instant::now() < deadline, "hole never re-nak'd");
            a.pump().unwrap();
        }
        assert!(Instant::now() >= named + NAK_INTERVAL, "re-nak'd early");
        assert_eq!(naks(&controls(&raw)), [(2, 3), (6, 8)]);

        // Closing one hole delivers up to the next, and only the open
        // one is named from then on.
        for seq in [2u64, 3] {
            raw.send(&scripted(1, seq, &Frame::Start { round: seq }))
                .unwrap();
        }
        let got: Vec<_> = std::iter::from_fn(|| a.try_recv().unwrap()).collect();
        let rounds: Vec<_> = (2..=5).map(|round| (1, Frame::Start { round })).collect();
        assert_eq!(got, rounds);
        let second = a.stats().naks_sent;
        while a.stats().naks_sent == second {
            assert!(Instant::now() < deadline, "open hole never re-nak'd");
            a.pump().unwrap();
        }
        let last = naks(&controls(&raw));
        assert!(!last.is_empty() && last.iter().all(|&hole| hole == (6, 8)));
    }

    #[test]
    fn foreign_datagrams_are_ignored_or_typed_errors() {
        let (mut a, raw) = scripted_peer();
        // A runt is not ours: dropped without a trace.
        raw.send(&[0xAB; 11]).unwrap();
        a.pump().unwrap();
        assert_eq!(a.stats().datagrams_received, 0);
        // A sender outside the peer table, our own shard id, and a data
        // frame riding the unsequenced lane are protocol violations.
        for bad in [
            scripted(7, 1, &Frame::Start { round: 0 }),
            scripted(0, 1, &Frame::Start { round: 0 }),
            scripted(1, 0, &Frame::Start { round: 0 }),
        ] {
            raw.send(&bad).unwrap();
            let err = a.pump().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // None of it wedged the endpoint.
        raw.send(&scripted(1, 1, &Frame::Start { round: 3 }))
            .unwrap();
        assert_eq!(a.try_recv().unwrap(), Some((1, Frame::Start { round: 3 })));
    }

    #[test]
    fn queued_naks_resend_once_and_never_kill_the_link() {
        let (mut a, raw) = scripted_peer();
        a.send_frame(1, &Frame::Start { round: 0 }).unwrap();
        // What a sender finds after a long compute phase: the receiver's
        // re-naks for one hole, queued up. More than MAX_ATTEMPTS of them.
        let nak = scripted(1, 0, &Frame::NakRange { from: 1, to: 1 });
        for _ in 0..100 {
            raw.send(&nak).unwrap();
        }
        while a.stats().naks_received < 100 {
            a.pump().unwrap();
        }
        let resent = a.stats().retransmitted;
        assert!((1..=2).contains(&resent), "{resent} resends for one hole");
        // The naks proved the peer alive, so the timer's next expiries
        // are ordinary retransmits, not "peer unresponsive".
        let deadline = Instant::now() + Duration::from_secs(10);
        while a.stats().retransmitted < resent + 2 {
            assert!(Instant::now() < deadline, "timer never fired");
            a.pump().unwrap();
        }
        assert_eq!(a.pending_datagrams(), 1);
        let ack = Frame::Ack(AckFrame {
            cumulative: 1,
            selective: Vec::new(),
        });
        raw.send(&scripted(1, 0, &ack)).unwrap();
        a.drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn every_retransmit_under_loss_is_a_repair() {
        let loss = DatagramLoss {
            seed: 0xC0FFEE,
            drop_per_mille: 250,
            dup_per_mille: 0,
        };
        let (mut a, mut b) = pair_with(Some(loss), DEFAULT_MTU);
        for r in 0..2000u64 {
            a.send_frame(1, &Frame::Start { round: r }).unwrap();
        }
        let got = shuttle(&mut a, &mut b, 2000);
        assert!(got
            .iter()
            .enumerate()
            .all(|(r, f)| f == &Frame::Start { round: r as u64 }));
        a.drain(Duration::from_secs(30)).unwrap();
        let (sent, seen) = (a.stats(), b.stats());
        assert!(sent.injected_drops > 400, "{sent:?}");
        // Each hole is named once, exactly, so nothing already received
        // is sent again (a timer nak over `cumulative+1 ..= max_seen`
        // re-sent whole windows here).
        assert!(sent.retransmitted <= sent.injected_drops + 8, "{sent:?}");
        assert!(seen.duplicates_received <= 8, "{seen:?}");
    }

    #[test]
    fn loss_verdicts_are_a_pure_function() {
        let l = DatagramLoss {
            seed: 9,
            drop_per_mille: 500,
            dup_per_mille: 500,
        };
        for link in 0..4 {
            for seq in 1..64 {
                assert_eq!(l.verdict(link, seq), l.verdict(link, seq));
            }
        }
        // Different lanes see different fault patterns.
        let lane0: Vec<_> = (1..200).map(|s| l.verdict(0, s)).collect();
        let lane1: Vec<_> = (1..200).map(|s| l.verdict(1, s)).collect();
        assert_ne!(lane0, lane1);
    }
}
