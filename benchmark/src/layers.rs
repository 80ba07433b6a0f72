//! Single-layer passes of the traced run: the frame codec, `FramedConn`, an
//! `Endpoint` pair, the copy-on-write commit and the propose fan-out, each
//! timed alone on inputs captured from the workload's `G_0` — never inside a
//! measured window.

use crate::inputs::sparse_sharded;
use crate::measure::median;
use bytes::BytesMut;
use gossip_cluster::{Endpoint, DEFAULT_MTU};
use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::{Pull, TaggedProposal};
use gossip_graph::{ArenaGraph, HalfEdge, ShardPlan, ShardedArenaGraph};
use gossip_shard::wire::{mailbox_frames, MailFrame};
use gossip_shard::{Frame, FramedConn, MailboxAssembler, MAX_FRAME_ENTRIES};
use std::hint::black_box;
use std::net::UdpSocket;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A pass is repeated until it has run this long, and its median reported.
const PASS_BUDGET: Duration = Duration::from_millis(60);
const LINK_TIMEOUT: Duration = Duration::from_secs(20);

/// Repeats `pass` (which returns one sample) for `PASS_BUDGET`, at least
/// three times; returns the median sample.
fn repeat(mut pass: impl FnMut() -> f64) -> f64 {
    let t = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t.elapsed() < PASS_BUDGET {
        samples.push(pass());
    }
    median(&samples)
}

fn first_round(g: &ArenaGraph, seed: u64, parallel: bool) -> (Vec<Vec<TaggedProposal>>, f64) {
    let mut bufs = vec![Vec::new(); g.n().div_ceil(PROPOSAL_CHUNK)];
    let t = Instant::now();
    propose_round(g, &Pull, seed, 0, &mut bufs, parallel);
    (bufs, t.elapsed().as_nanos() as f64)
}

/// The first round's proposals of `G_0`, routed the way the sharded engines
/// route them at S = 2: the two mailboxes source shard 0 would upload.
pub fn captured_mail(g: &ArenaGraph, seed: u64) -> [Vec<HalfEdge>; 2] {
    let plan = ShardPlan::new(g.n(), 2);
    let (bufs, _) = first_round(g, seed, false);
    let mut boxes = [Vec::new(), Vec::new()];
    for (slot, &(_, a, b)) in bufs.iter().flatten().enumerate() {
        if a != b {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            boxes[plan.owner(lo)].push((slot as u32, lo, hi));
            boxes[plan.owner(hi)].push((slot as u32, hi, lo));
        }
    }
    boxes
}

pub struct Codec {
    pub encode_ns_per_entry: f64,
    pub decode_ns_per_entry: f64,
    pub bytes_per_entry: f64,
    pub entries: u64,
}

/// `mailbox_frames` + `Frame::encode`, then `Frame::decode` +
/// `MailboxAssembler::accept`, on the captured mailboxes.
pub fn codec(boxes: &[Vec<HalfEdge>; 2]) -> Codec {
    let entries = (boxes[0].len() + boxes[1].len()) as f64;
    let mut buf = BytesMut::new();
    let mut lens = Vec::new();
    let encode_ns = repeat(|| {
        buf.clear();
        lens.clear();
        let t = Instant::now();
        for (owner, entries) in boxes.iter().enumerate() {
            for f in mailbox_frames(1, 0, owner as u32, entries, MAX_FRAME_ENTRIES) {
                let at = buf.len();
                Frame::Mail(f).encode(&mut buf);
                lens.push(buf.len() - at);
            }
        }
        t.elapsed().as_nanos() as f64
    });
    let decode_ns = repeat(|| {
        let mut asm = MailboxAssembler::for_source(2, 0, 1);
        let mut at = 0;
        let t = Instant::now();
        for &len in &lens {
            match Frame::decode(&buf[at + 4..at + len]) {
                Ok(Frame::Mail(f)) => {
                    asm.accept(&f).expect("canonical order");
                }
                other => panic!("encoded Mail decoded as {other:?}"),
            }
            at += len;
        }
        let ns = t.elapsed().as_nanos() as f64;
        assert!(asm.is_complete());
        assert_eq!(asm.into_mail()[0], *boxes, "codec round trip");
        ns
    });
    Codec {
        encode_ns_per_entry: encode_ns / entries,
        decode_ns_per_entry: decode_ns / entries,
        bytes_per_entry: buf.len() as f64 / entries,
        entries: entries as u64,
    }
}

/// A full (1024-entry) Mail frame and the empty `last` frame that closes a
/// stream, as the link passes send them.
fn link_frames(boxes: &[Vec<HalfEdge>; 2]) -> (Frame, Frame, f64) {
    let mut entries: Vec<HalfEdge> = boxes.iter().flatten().copied().collect();
    // Small graphs route fewer half-edges than one frame holds.
    while entries.len() < MAX_FRAME_ENTRIES {
        entries.extend_from_within(..);
    }
    entries.truncate(MAX_FRAME_ENTRIES);
    let full = Frame::Mail(MailFrame {
        round: 1,
        source: 0,
        owner: 1,
        seq: 0,
        last: false,
        entries,
    });
    let empty = Frame::Mail(MailFrame {
        round: 1,
        source: 0,
        owner: 1,
        seq: 1,
        last: true,
        entries: Vec::new(),
    });
    let mut buf = BytesMut::new();
    full.encode(&mut buf);
    (full, empty, buf.len() as f64)
}

/// MiB/s of `FramedConn::send` → `recv` over a socket pair, two threads.
pub fn framed_mib_per_s(boxes: &[Vec<HalfEdge>; 2]) -> f64 {
    const FRAMES: usize = 1500;
    let (full, _, frame_bytes) = link_frames(boxes);
    repeat(|| {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut tx = FramedConn::from_stream(a).expect("framed tx");
        let mut rx = FramedConn::from_stream(b).expect("framed rx");
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..FRAMES {
                    tx.send(&full).expect("framed send");
                }
                tx.flush().expect("framed flush");
            });
            for _ in 0..FRAMES {
                black_box(rx.recv().expect("framed recv"));
            }
        });
        FRAMES as f64 * frame_bytes / (1 << 20) as f64 / t.elapsed().as_secs_f64()
    })
}

pub struct LinkPass {
    pub frame_us: f64,
    pub mib_per_s: f64,
    pub small_frame_us: f64,
}

fn endpoint_pair() -> (Endpoint, Endpoint) {
    let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    let (a, b) = (bind(), bind());
    let peers = vec![
        a.local_addr().expect("local addr"),
        b.local_addr().expect("local addr"),
    ];
    (
        Endpoint::new(a, 0, peers.clone(), None, DEFAULT_MTU).expect("endpoint 0"),
        Endpoint::new(b, 1, peers, None, DEFAULT_MTU).expect("endpoint 1"),
    )
}

/// Wall seconds for `count` copies of `frame` to cross a loopback
/// `Endpoint` pair: queued with `send_frame`, pumped until the receiver has
/// them all and the sender has every ack.
fn cross_link(frame: &Frame, count: usize) -> f64 {
    let (mut tx, mut rx) = endpoint_pair();
    let acked = AtomicBool::new(false);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..count {
                tx.send_frame(1, frame).expect("send_frame");
            }
            tx.drain(LINK_TIMEOUT).expect("acks");
            acked.store(true, Ordering::Release);
        });
        for _ in 0..count {
            black_box(rx.recv(LINK_TIMEOUT).expect("link recv"));
        }
        // Acks ride the receiver's pump: keep it turning until the sender
        // has them all.
        while !acked.load(Ordering::Acquire) && t.elapsed() < 2 * LINK_TIMEOUT {
            rx.pump().expect("receiver pump");
        }
    });
    t.elapsed().as_secs_f64()
}

/// The datagram window alone, on loopback (`--smoke` sends a quarter of
/// the frames).
pub fn link(boxes: &[Vec<HalfEdge>; 2], smoke: bool) -> LinkPass {
    let scale = if smoke { 1 } else { 4 };
    let (full_frames, small_frames) = (50 * scale, 250 * scale);
    let (full, empty, frame_bytes) = link_frames(boxes);
    let full_s = median(&[
        cross_link(&full, full_frames),
        cross_link(&full, full_frames),
    ]);
    let small_s = cross_link(&empty, small_frames);
    LinkPass {
        frame_us: full_s * 1e6 / full_frames as f64,
        mib_per_s: full_frames as f64 * frame_bytes / (1 << 20) as f64 / full_s,
        small_frame_us: small_s * 1e6 / small_frames as f64,
    }
}

pub struct Cow {
    pub commit_ms: f64,
    pub clone_ns: f64,
}

/// What publishing a snapshot costs (`clone`) and what the next round pays
/// for it (`segments_mut` deep-copies every segment a snapshot still holds).
pub fn cow(n: usize, seed: u64) -> Cow {
    let mut g: ShardedArenaGraph = sparse_sharded(n, seed, 8);
    let clone_ns = repeat(|| {
        const CLONES: u32 = 64;
        let t = Instant::now();
        for _ in 0..CLONES {
            black_box(g.clone());
        }
        t.elapsed().as_nanos() as f64 / CLONES as f64
    });
    let commit_ms = repeat(|| {
        let held = g.clone();
        let t = Instant::now();
        black_box(g.segments_mut());
        let ms = t.elapsed().as_nanos() as f64 / 1e6;
        assert!(!g.shares_segment(&held, 0), "commit did not copy");
        ms
    });
    Cow {
        commit_ms,
        clone_ns,
    }
}

/// Sequential propose time / parallel propose time of `G_0`'s first round,
/// on the pool's two threads.
pub fn propose_parallel_speedup(g: &ArenaGraph, seed: u64) -> f64 {
    let seq = repeat(|| first_round(g, seed, false).1);
    let par = repeat(|| first_round(g, seed, true).1);
    seq / par
}
