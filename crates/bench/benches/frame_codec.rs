//! Frame-codec hot path: encode/decode cost of the transport's mailbox
//! frames. Every proposal a shard ships crosses this codec twice (once
//! serialized, once parsed), so its
//! per-entry cost bounds how much the serialized seam can add on top of
//! the in-process round. The decode rows exercise the fully-checked
//! parser (count validation, exact-remainder, trailing-garbage scan),
//! which is the part with regression potential. The `window` row holds
//! what carries those frames across a datagram link: the ack clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossip_cluster::{Endpoint, DEFAULT_MTU};
use gossip_graph::{HalfEdge, NodeId};
use gossip_shard::wire::{fragment_frames, mailbox_frames, Defragmenter, Frame};
use gossip_shard::MAX_FRAME_ENTRIES;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn entries(count: usize) -> Vec<HalfEdge> {
    (0..count as u32)
        .map(|i| {
            (
                i % 1024,
                NodeId(i.wrapping_mul(2654435761) >> 16),
                NodeId(i),
            )
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);

    for count in [64usize, MAX_FRAME_ENTRIES] {
        let payload = entries(count);
        group.throughput(Throughput::Elements(count as u64));

        group.bench_with_input(BenchmarkId::new("encode_mail", count), &payload, |b, p| {
            let frames = mailbox_frames(3, 1, 2, p, MAX_FRAME_ENTRIES);
            let mut buf = bytes::BytesMut::new();
            b.iter(|| {
                buf.clear();
                for f in &frames {
                    Frame::Mail(f.clone()).encode(&mut buf);
                }
                std::hint::black_box(buf.len())
            })
        });

        group.bench_with_input(BenchmarkId::new("decode_mail", count), &payload, |b, p| {
            let frames = mailbox_frames(3, 1, 2, p, MAX_FRAME_ENTRIES);
            let mut buf = bytes::BytesMut::new();
            for f in &frames {
                Frame::Mail(f.clone()).encode(&mut buf);
            }
            let wire = buf.to_vec();
            b.iter(|| {
                let mut at = 0;
                while at < wire.len() {
                    let len = u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
                    let frame = Frame::decode(&wire[at + 4..at + 4 + len]).unwrap();
                    std::hint::black_box(&frame);
                    at += 4 + len;
                }
            })
        });
    }

    // The datagram path (gossip-cluster) splits every oversized frame
    // into MTU-sized fragments and reassembles them on receipt; under
    // loss each retransmitted fragment crosses the reassembler again, so
    // both directions sit on the cluster transport's hot path.
    let payload = entries(MAX_FRAME_ENTRIES);
    let mut buf = bytes::BytesMut::new();
    for f in mailbox_frames(3, 1, 2, &payload, MAX_FRAME_ENTRIES) {
        Frame::Mail(f).encode(&mut buf);
    }
    let frame_bytes = buf.to_vec();
    for mtu in [256usize, 1400] {
        group.throughput(Throughput::Elements(MAX_FRAME_ENTRIES as u64));

        group.bench_with_input(
            BenchmarkId::new("fragment_encode", mtu),
            &frame_bytes,
            |b, bytes| b.iter(|| std::hint::black_box(fragment_frames(7, bytes, mtu).len())),
        );

        group.bench_with_input(
            BenchmarkId::new("fragment_reassemble", mtu),
            &frame_bytes,
            |b, bytes| {
                let frags = fragment_frames(7, bytes, mtu);
                b.iter(|| {
                    let mut d = Defragmenter::new();
                    let mut out = None;
                    for f in &frags {
                        if let Some(whole) = d.accept(f).unwrap() {
                            out = Some(whole);
                        }
                    }
                    std::hint::black_box(out.unwrap().len())
                })
            },
        );
    }

    group.finish();
}

/// 256 one-datagram frames — four turns of the 64-datagram send window —
/// across a two-thread loopback `Endpoint` pair, until the sender holds
/// every ack. No payload to speak of, so the time is the window's turn
/// latency: how soon an arrival is acked and how soon the ack admits the
/// next datagrams; a pump that sits out a socket timeout with work in
/// hand shows here as milliseconds. The receiver thread outlives the
/// iterations, so its own idle wait is never inside one.
fn bench_window(c: &mut Criterion) {
    const FRAMES: u64 = 256;
    let mut group = c.benchmark_group("window");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30)
        .throughput(Throughput::Elements(FRAMES));

    let bind = || UdpSocket::bind("127.0.0.1:0").unwrap();
    let (a, b) = (bind(), bind());
    let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
    let mut tx = Endpoint::new(a, 0, peers.clone(), None, DEFAULT_MTU).unwrap();
    let mut rx = Endpoint::new(b, 1, peers, None, DEFAULT_MTU).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                std::hint::black_box(rx.try_recv().unwrap());
            }
        });
        group.bench_function("loopback_256_frames", |bench| {
            bench.iter(|| {
                for round in 0..FRAMES {
                    tx.send_frame(1, &Frame::Start { round }).unwrap();
                }
                tx.drain(Duration::from_secs(10)).unwrap();
            })
        });
        done.store(true, Ordering::Release);
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_window);
criterion_main!(benches);
