//! Frame-codec property suite: round-trips and decode rejection under the
//! vendored proptest shim.
//!
//! Every test here is a pure function of its generated inputs, so a
//! failing case shrinks deterministically and replays exactly under
//! `PROPTEST_SEED=<seed>` (the shim prints the seed on failure). Coverage
//! the ISSUE pins: empty mailboxes, max-size chunks, tombstoned members
//! (cap-0 rows in snapshot chunks), and rejection of truncated,
//! duplicated, out-of-order and garbage frames.

use gossip_core::rng::stream_rng;
use gossip_graph::{generators, HalfEdge, NodeId, SegSnapshotAssembler, ShardedArenaGraph};
use gossip_shard::framed::parse_framed;
use gossip_shard::wire::{
    fragment_frames, mailbox_frames, AckFrame, AssembleError, Defragmenter, FragmentError, Frame,
    MailFrame, MailboxAssembler,
};
use gossip_shard::MAX_FRAME_ENTRIES;
use proptest::prelude::*;
use rand::Rng;

/// Derives a half-edge list from one u64 per entry (keeps the strategy
/// surface to plain integers, which the shim shrinks well).
fn entries_from(raw: &[u64]) -> Vec<HalfEdge> {
    raw.iter()
        .map(|&w| {
            (
                (w & 0xFFFF) as u32,
                NodeId(((w >> 16) & 0xFFFF) as u32),
                NodeId(((w >> 32) & 0xFFFF) as u32),
            )
        })
        .collect()
}

fn encode_to_vec(f: &Frame) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    f.encode(&mut buf);
    buf.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mail frames round-trip for any entry payload, from empty up to
    /// more than two max-size chunks.
    #[test]
    fn mail_frames_roundtrip(
        raw in proptest::collection::vec(any::<u64>(), 0..(2 * MAX_FRAME_ENTRIES + 100)),
        round in any::<u64>(),
        source in 0u32..16,
        owner in 0u32..16,
    ) {
        let entries = entries_from(&raw);
        let frames = mailbox_frames(round, source, owner, &entries, MAX_FRAME_ENTRIES);
        // Chunking covers the payload exactly, max-size chunks included.
        prop_assert_eq!(
            frames.len(),
            entries.len().div_ceil(MAX_FRAME_ENTRIES).max(1)
        );
        let mut reassembled = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.last, i + 1 == frames.len());
            prop_assert!(f.entries.len() <= MAX_FRAME_ENTRIES);
            let wire = encode_to_vec(&Frame::Mail(f.clone()));
            let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
            prop_assert_eq!(len, wire.len() - 4);
            match Frame::decode(&wire[4..]) {
                Ok(Frame::Mail(back)) => {
                    prop_assert_eq!(&back, f);
                    reassembled.extend_from_slice(&back.entries);
                }
                other => return Err(TestCaseError::fail(format!("bad decode: {other:?}"))),
            }
        }
        prop_assert_eq!(reassembled, entries);
    }

    /// Any truncation of any valid frame is rejected — never accepted,
    /// never a panic, never an over-read.
    #[test]
    fn truncated_frames_are_rejected(
        raw in proptest::collection::vec(any::<u64>(), 0..64),
        round in any::<u64>(),
        cut_fraction in 0u32..1000,
    ) {
        let entries = entries_from(&raw);
        let frames = mailbox_frames(round, 1, 2, &entries, MAX_FRAME_ENTRIES);
        let wire = encode_to_vec(&Frame::Mail(frames[0].clone()));
        let body = &wire[4..];
        let cut = (body.len() - 1) * cut_fraction as usize / 1000;
        prop_assert!(Frame::decode(&body[..cut]).is_err());
    }

    /// Appending bytes to a valid body (the "duplicated frame glued onto
    /// the previous one" corruption) is rejected as trailing garbage, and
    /// fully random byte soup never panics the decoder.
    #[test]
    fn duplicated_and_garbage_bytes_are_rejected(
        raw in proptest::collection::vec(any::<u64>(), 1..32),
        soup in proptest::collection::vec(any::<u8>(), 0..256),
        round in any::<u64>(),
    ) {
        let entries = entries_from(&raw);
        let frames = mailbox_frames(round, 0, 1, &entries, MAX_FRAME_ENTRIES);
        let wire = encode_to_vec(&Frame::Mail(frames[0].clone()));
        // Duplicate the body back-to-back: decode must refuse the tail.
        let mut doubled = wire[4..].to_vec();
        doubled.extend_from_slice(&wire[4..]);
        prop_assert!(Frame::decode(&doubled).is_err());
        // Arbitrary bytes: any result is fine except a panic or an
        // allocation explosion (the decoder validates counts first).
        let _ = Frame::decode(&soup);
    }

    /// What a repaired lossy carrier hands the assembler: every source's
    /// link in its own order, the links interleaved arbitrarily. Any such
    /// interleaving assembles to the canonical grid in non-strict mode;
    /// swap two neighbouring frames of one stream and both modes reject
    /// the schedule at the first frame out of place.
    #[test]
    fn lossy_assembler_recovers_any_permutation(
        raw in proptest::collection::vec(any::<u64>(), 0..600),
        seed in any::<u64>(),
        round in any::<u64>(),
        shards in 2usize..5,
    ) {
        let entries = entries_from(&raw);
        let mailbox = |source: usize, owner: usize| {
            &entries[..entries.len() * (source + owner) / (2 * shards)]
        };
        // Destination shard 0 hears one link per other source.
        let links: Vec<Vec<MailFrame>> = (1..shards)
            .map(|source| {
                (0..shards)
                    .flat_map(|owner| {
                        let mailbox = mailbox(source, owner);
                        mailbox_frames(round, source as u32, owner as u32, mailbox, 64)
                    })
                    .collect()
            })
            .collect();
        let mut rng = stream_rng(seed, 0, 0);
        let mut asm = MailboxAssembler::for_worker(shards, 0, round, false);
        let mut heads = vec![0usize; links.len()];
        loop {
            let open: Vec<usize> =
                (0..links.len()).filter(|&l| heads[l] < links[l].len()).collect();
            if open.is_empty() {
                break;
            }
            let l = open[rng.random_range(0..open.len())];
            prop_assert_eq!(asm.accept(&links[l][heads[l]]), Ok(()));
            heads[l] += 1;
        }
        prop_assert!(asm.is_complete());
        let mail = asm.into_mail();
        for (source, row) in mail.iter().enumerate().skip(1) {
            for (owner, got) in row.iter().enumerate() {
                prop_assert_eq!(got.as_slice(), mailbox(source, owner));
            }
        }

        // The links end to end are the canonical schedule, legal in both
        // modes until two frames of one stream trade places.
        let mut schedule: Vec<&MailFrame> = links.iter().flatten().collect();
        let stream = |f: &MailFrame| (f.source, f.owner);
        let swaps: Vec<usize> = (0..schedule.len() - 1)
            .filter(|&k| stream(schedule[k]) == stream(schedule[k + 1]))
            .collect();
        if !swaps.is_empty() {
            let k = swaps[rng.random_range(0..swaps.len())];
            schedule.swap(k, k + 1);
            for strict in [false, true] {
                let mut asm = MailboxAssembler::for_worker(shards, 0, round, strict);
                for f in &schedule[..k] {
                    prop_assert_eq!(asm.accept(f), Ok(()));
                }
                let ((source, owner), seq) = (stream(schedule[k]), schedule[k].seq);
                prop_assert_eq!(
                    asm.accept(schedule[k]),
                    Err(AssembleError::OutOfOrder { source, owner, seq })
                );
            }
        }
    }

    /// Ack frames round-trip for any cumulative floor and any valid
    /// selective set, and the decoder rejects non-ascending selective
    /// lists and empty/zero-based nak ranges.
    #[test]
    fn ack_and_nak_range_frames_roundtrip_and_validate(
        cumulative in any::<u64>(),
        deltas in proptest::collection::vec(1u64..1000, 0..64),
        from_raw in any::<u64>(),
        span in 0u64..10_000,
        cut_fraction in 0u32..1000,
    ) {
        // Selective acks are strictly ascending and above the cumulative
        // floor by construction: a running sum of positive deltas.
        let mut selective = Vec::new();
        let mut at = cumulative;
        for d in &deltas {
            at = at.saturating_add(*d);
            if at > cumulative && selective.last() != Some(&at) {
                selective.push(at);
            }
        }
        let ack = Frame::Ack(AckFrame { cumulative, selective: selective.clone() });
        let wire = encode_to_vec(&ack);
        prop_assert_eq!(Frame::decode(&wire[4..]).unwrap(), ack);
        // Any truncation of the ack body is rejected.
        let cut = (wire.len() - 5) * cut_fraction as usize / 1000;
        prop_assert!(Frame::decode(&wire[4..4 + cut]).is_err());
        // A descending selective list never survives decode.
        if selective.len() >= 2 {
            let mut bad = selective.clone();
            bad.reverse();
            let evil = encode_to_vec(&Frame::Ack(AckFrame { cumulative, selective: bad }));
            prop_assert!(Frame::decode(&evil[4..]).is_err());
        }
        // Nak ranges: valid spans round-trip; empty spans and ranges
        // naming the unsequenced seq 0 are rejected.
        let from = from_raw.max(1);
        let to = from.saturating_add(span);
        let nak = Frame::NakRange { from, to };
        let wire = encode_to_vec(&nak);
        prop_assert_eq!(Frame::decode(&wire[4..]).unwrap(), nak);
        let empty = encode_to_vec(&Frame::NakRange { from: to.saturating_add(1), to });
        prop_assert!(Frame::decode(&empty[4..]).is_err());
        let zero = encode_to_vec(&Frame::NakRange { from: 0, to: span });
        prop_assert!(Frame::decode(&zero[4..]).is_err());
    }

    /// Fragment frames carry any frame across any MTU: each fragment
    /// round-trips the wire individually, the reassembled bytes parse to
    /// the original frame, truncated fragments are rejected by the
    /// decoder, and a duplicated final fragment is rejected by the
    /// defragmenter.
    #[test]
    fn fragment_frames_roundtrip_reassemble_and_reject(
        raw in proptest::collection::vec(any::<u64>(), 0..600),
        round in any::<u64>(),
        msg_id in any::<u64>(),
        mtu in 1usize..4096,
        cut_fraction in 0u32..1000,
    ) {
        let entries = entries_from(&raw);
        let inner = encode_to_vec(&Frame::Mail(
            mailbox_frames(round, 1, 0, &entries, MAX_FRAME_ENTRIES)[0].clone(),
        ));
        let frags = fragment_frames(msg_id, &inner, mtu);
        prop_assert_eq!(frags.len(), (inner.len().div_ceil(mtu)).max(1));
        let mut d = Defragmenter::new();
        let mut out = None;
        for (i, f) in frags.iter().enumerate() {
            prop_assert_eq!(f.index as usize, i);
            prop_assert_eq!(f.last, i + 1 == frags.len());
            let wire = encode_to_vec(&Frame::Fragment(f.clone()));
            match Frame::decode(&wire[4..]) {
                Ok(Frame::Fragment(back)) => prop_assert_eq!(&back, f),
                other => return Err(TestCaseError::fail(format!("bad decode: {other:?}"))),
            }
            // Truncating a fragment body is always caught by the decoder.
            let cut = (wire.len() - 5) * cut_fraction as usize / 1000;
            prop_assert!(Frame::decode(&wire[4..4 + cut]).is_err());
            out = d.accept(f).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        prop_assert_eq!(parse_framed(&out.unwrap()).unwrap(), parse_framed(&inner).unwrap());
        // Replaying the final fragment (the classic datagram duplicate)
        // is refused — the message cannot be delivered twice.
        let last = frags.last().unwrap();
        match d.accept(last) {
            Err(FragmentError::AfterFinal { msg_id: id }) => prop_assert_eq!(id, msg_id),
            other => return Err(TestCaseError::fail(format!("duplicate final accepted: {other:?}"))),
        }
    }

    /// Snapshot-chunk frames round-trip any segment chunking — including
    /// tombstoned rows — the assembler rebuilds a segment that streams
    /// back the same chunks, and truncations are rejected.
    #[test]
    fn snapshot_chunk_frames_roundtrip_and_reassemble(
        seed in any::<u64>(),
        n in 2usize..400,
        shards in 1usize..5,
        removals in 0usize..16,
        budget in 1usize..2000,
        cut_fraction in 0u32..1000,
    ) {
        let cap = n as u64 * (n as u64 - 1) / 2;
        let und =
            generators::tree_plus_random_edges(n, (n as u64).min(cap), &mut stream_rng(seed, 0, 0));
        let mut g = ShardedArenaGraph::from_arena(&und, shards);
        let mut rng = stream_rng(seed, 1, 0);
        for _ in 0..removals {
            let u = NodeId(rng.random_range(0..n as u32));
            g.remove_member(u);
        }
        for s in 0..shards {
            let chunks: Vec<_> = g.segment(s).chunks(budget).collect();
            let mut asm = SegSnapshotAssembler::new(n);
            for chunk in &chunks {
                let frame = Frame::SnapshotChunk { segment: s as u32, chunk: chunk.clone() };
                let wire = encode_to_vec(&frame);
                match Frame::decode(&wire[4..]) {
                    Ok(Frame::SnapshotChunk { segment, chunk: back }) => {
                        prop_assert_eq!(segment as usize, s);
                        prop_assert_eq!(&back, chunk);
                    }
                    other => return Err(TestCaseError::fail(format!("bad decode: {other:?}"))),
                }
                let cut = (wire.len() - 5) * cut_fraction as usize / 1000;
                prop_assert!(Frame::decode(&wire[4..4 + cut]).is_err());
                asm.accept(chunk).map_err(TestCaseError::fail)?;
            }
            prop_assert!(asm.is_complete());
            prop_assert_eq!(asm.finish().chunks(budget).collect::<Vec<_>>(), chunks);
        }
    }

    /// The strict assembler accepts exactly the canonical order — any
    /// single transposition of a multi-frame schedule is rejected at the
    /// first out-of-place frame.
    #[test]
    fn strict_assembler_rejects_any_transposition(
        raw in proptest::collection::vec(any::<u64>(), 130..600),
        round in any::<u64>(),
        swap_at in any::<u64>(),
    ) {
        let shards = 2;
        let entries = entries_from(&raw);
        // Two streams (1 -> 0) and (1 -> 1), chunked small for several frames.
        let mut schedule: Vec<MailFrame> = Vec::new();
        schedule.extend(mailbox_frames(round, 1, 0, &entries, 64));
        schedule.extend(mailbox_frames(round, 1, 1, &entries[..100], 64));
        prop_assert!(schedule.len() >= 4);
        let k = (swap_at % (schedule.len() as u64 - 1)) as usize;
        schedule.swap(k, k + 1);
        let mut asm = MailboxAssembler::for_worker(shards, 0, round, true);
        let mut failed = false;
        for f in &schedule {
            if asm.accept(f).is_err() {
                failed = true;
                break;
            }
        }
        prop_assert!(failed, "transposition at {} went unnoticed", k);
    }
}
