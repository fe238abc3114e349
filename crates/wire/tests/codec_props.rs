//! Property tests of the framed codec: every message variant survives
//! encode → frame → split-read → decode, and corrupt or truncated frames
//! fail loudly (errors), never quietly (panics or wrong data).

use ftbb_bnb::AnyInstance;
use ftbb_core::{GrantItem, JobId, Msg};
use ftbb_gossip::{MembershipMsg, ViewDigest};
use ftbb_runtime::Envelope;
use ftbb_tree::Code;
use ftbb_wire::{encode_announce, encode_frame, FrameDecoder, WireError, WireFrame};
use proptest::prelude::*;

/// Strategy for an arbitrary (possibly deep) tree code.
fn code_strategy() -> impl Strategy<Value = Code> {
    collection::vec((0u16..512, any::<bool>()), 0..24)
        .prop_map(|pairs| Code::from_decisions(&pairs))
}

fn grant_item_strategy() -> impl Strategy<Value = GrantItem> {
    (code_strategy(), any::<u32>()).prop_map(|(code, b)| GrantItem {
        code,
        bound: b as f64 / 16.0,
    })
}

/// Strategy covering every `Msg` variant, including `Membership` and
/// multi-item `WorkGrant`s.
fn msg_strategy() -> impl Strategy<Value = Msg> {
    (0u8..6).prop_flat_map(|variant| {
        let incumbent_of = |raw: u32| {
            if raw.is_multiple_of(7) {
                f64::INFINITY
            } else {
                raw as f64 / 3.0
            }
        };
        match variant {
            0 => (any::<u32>(), Just(()))
                .prop_map(move |(i, _)| Msg::WorkRequest {
                    incumbent: incumbent_of(i),
                })
                .boxed(),
            1 => (collection::vec(grant_item_strategy(), 0..12), any::<u32>())
                .prop_map(move |(items, i)| Msg::WorkGrant {
                    items,
                    incumbent: incumbent_of(i),
                })
                .boxed(),
            2 => (any::<u32>(), Just(()))
                .prop_map(move |(i, _)| Msg::WorkDeny {
                    incumbent: incumbent_of(i),
                })
                .boxed(),
            3 => (collection::vec(code_strategy(), 0..16), any::<u32>())
                .prop_map(move |(codes, i)| Msg::WorkReport {
                    codes,
                    incumbent: incumbent_of(i),
                })
                .boxed(),
            4 => (collection::vec(code_strategy(), 0..16), any::<u32>())
                .prop_map(move |(codes, i)| Msg::TableGossip {
                    codes,
                    incumbent: incumbent_of(i),
                })
                .boxed(),
            _ => (
                0u8..3,
                any::<u32>(),
                collection::vec((0u32..64, 0u64..1000), 0..10),
            )
                .prop_map(|(kind, member, entries)| {
                    Msg::Membership(match kind {
                        0 => MembershipMsg::Join { member },
                        1 => MembershipMsg::Gossip(ViewDigest { entries }),
                        _ => MembershipMsg::Welcome(ViewDigest { entries }),
                    })
                })
                .boxed(),
        }
    })
}

/// Strategy producing every [`AnyInstance`] variant from generator
/// parameters (all three are deterministic per seed, so shrinking stays
/// meaningful).
fn any_instance_strategy() -> impl Strategy<Value = AnyInstance> {
    (0u8..3).prop_flat_map(|variant| match variant {
        0 => (4u64..14, 10u64..60, any::<u64>())
            .prop_map(|(n, range, seed)| {
                AnyInstance::Knapsack(ftbb_bnb::KnapsackInstance::generate(
                    n as usize,
                    range.max(2),
                    ftbb_bnb::Correlation::Weak,
                    0.5,
                    seed,
                ))
            })
            .boxed(),
        1 => (2u64..12, 4u64..30, any::<u64>())
            .prop_map(|(vars, clauses, seed)| {
                AnyInstance::MaxSat(ftbb_bnb::MaxSatInstance::generate(
                    vars as u16,
                    clauses as usize,
                    seed,
                ))
            })
            .boxed(),
        _ => (3u64..120, any::<u64>())
            .prop_map(|(nodes, seed)| {
                AnyInstance::from(ftbb_tree::generator::random_basic_tree(
                    &ftbb_tree::generator::TreeConfig {
                        target_nodes: nodes as usize,
                        seed,
                        ..Default::default()
                    },
                ))
            })
            .boxed(),
    })
}

/// Strategy for a piggybacked address book (codec v4):
/// `(id, addr, incarnation)` entries.
fn book_strategy() -> impl Strategy<Value = Vec<(u32, std::net::SocketAddr, u32)>> {
    collection::vec((any::<u32>(), 1u16..65535, any::<u32>()), 0..8).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, port, inc)| (id, std::net::SocketAddr::from(([127, 0, 0, 1], port)), inc))
            .collect()
    })
}

/// Encodes one join frame, feeds it to a decoder in `chunk`-byte pieces
/// and checks that exactly that frame comes out.
fn join_survives_framing(from: u32, incarnation: u32, port: u16, chunk: usize) {
    let join = ftbb_wire::JoinFrame {
        from,
        incarnation,
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
    };
    let frame = ftbb_wire::encode_join(&join);
    let mut dec = FrameDecoder::new();
    let mut decoded = None;
    for piece in frame.bytes.chunks(chunk) {
        dec.push(piece);
        if let Some(got) = dec.try_next().expect("valid frame decodes") {
            assert!(decoded.is_none(), "only one frame was sent");
            decoded = Some(got);
        }
    }
    match decoded.expect("frame fully fed") {
        WireFrame::Join(got) => assert_eq!(got, join),
        other => panic!("expected join, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip through the frame codec with arbitrary read chunking —
    /// including the incarnation tags the lifecycle refactor added and
    /// the piggybacked address book codec v4 added.
    #[test]
    fn every_msg_survives_framing_and_split_reads(
        msg in msg_strategy(),
        job in any::<u64>(),
        from in any::<u32>(),
        from_incarnation in any::<u32>(),
        to_incarnation in any::<u32>(),
        book in book_strategy(),
        chunk in 1usize..64,
    ) {
        let env = Envelope { job: JobId::from(job), from, msg };
        let frame = encode_frame(&env, from_incarnation, to_incarnation, &book);
        prop_assert!(frame.encoded_len() > frame.wire_size,
            "frame header must add bytes");

        let mut dec = FrameDecoder::new();
        let mut decoded = None;
        for piece in frame.bytes.chunks(chunk) {
            dec.push(piece);
            if let Some(got) = dec.try_next().expect("valid frame decodes") {
                prop_assert!(decoded.is_none(), "only one frame was sent");
                decoded = Some(got);
            }
        }
        let got = decoded.expect("frame fully fed");
        prop_assert_eq!(got, WireFrame::Protocol { env, from_incarnation, to_incarnation, book });
    }

    /// Back-to-back frames decode independently in order.
    #[test]
    fn coalesced_streams_split_correctly(
        msgs in collection::vec(msg_strategy(), 1..8),
        from in any::<u32>(),
    ) {
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(
                &encode_frame(&Envelope { job: JobId::DEFAULT, from, msg: msg.clone() }, 0, 0, &[]).bytes,
            );
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        for msg in &msgs {
            let got = dec
                .try_next()
                .expect("decodes")
                .expect("present")
                .into_envelope()
                .expect("protocol frame");
            prop_assert_eq!(&got.msg, msg);
        }
        prop_assert_eq!(dec.try_next().expect("clean tail"), None);
    }

    /// Any strict prefix of a frame pends (needs more bytes) — it never
    /// errors, never panics, and never yields a message.
    #[test]
    fn truncated_frames_pend_not_panic(msg in msg_strategy(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&Envelope { job: JobId::DEFAULT, from: 1, msg }, 0, 0, &[]).bytes;
        let cut = (cut_seed as usize) % frame.len();
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..cut]);
        prop_assert_eq!(dec.try_next().expect("prefix is pending"), None);
    }

    /// A single flipped byte anywhere in the frame is detected: decode
    /// returns an error or keeps pending; it never returns wrong data.
    #[test]
    fn corruption_never_decodes_silently(msg in msg_strategy(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let env = Envelope { job: JobId::from(7), from: 9, msg };
        let frame = encode_frame(&env, 3, 4, &[]).bytes;
        let pos = (pos_seed as usize) % frame.len();
        let mut bad = frame.to_vec();
        bad[pos] ^= flip;
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        match dec.try_next() {
            Err(_) => {}          // detected
            Ok(None) => {}        // length grew: stream pends forever
            Ok(Some(got)) => prop_assert_eq!(
                got,
                WireFrame::Protocol { env, from_incarnation: 3, to_incarnation: 4, book: vec![] },
                "corrupt frame decoded to different data"
            ),
        }
    }

    /// Join frames — a first life's or a resumed one's — survive framing
    /// and split reads for arbitrary ids, incarnations and ports.
    #[test]
    fn every_join_survives_framing(
        from in any::<u32>(),
        incarnation in any::<u32>(),
        port in 1u16..65535,
        chunk in 1usize..64,
    ) {
        join_survives_framing(from, incarnation, port, chunk);
    }

    /// A node resumed from a checkpoint (incarnation > 0) introduces
    /// itself with the same join frame, which survives framing and split
    /// reads with its later incarnation intact.
    #[test]
    fn every_rejoin_survives_framing(
        from in any::<u32>(),
        incarnation in 1u32..=u32::MAX,
        port in 1u16..65535,
        chunk in 1usize..64,
    ) {
        join_survives_framing(from, incarnation, port, chunk);
    }

    /// Every `AnyInstance` variant survives the announce frame: encode →
    /// split-read decode → identical, validated instance.
    #[test]
    fn every_instance_survives_the_announce_frame(
        instance in any_instance_strategy(),
        from in any::<u32>(),
        incarnation in any::<u32>(),
        job in any::<u64>(),
        chunk in 1usize..512,
    ) {
        let frame = encode_announce(from, incarnation, JobId::from(job), &instance);
        prop_assert!(!frame.exceeds_limit());
        let mut dec = FrameDecoder::new();
        let mut decoded = None;
        for piece in frame.bytes.chunks(chunk) {
            dec.push(piece);
            if let Some(got) = dec.try_next().expect("valid frame decodes") {
                prop_assert!(decoded.is_none(), "only one frame was sent");
                decoded = Some(got);
            }
        }
        match decoded.expect("frame fully fed") {
            WireFrame::Announce { from: got_from, incarnation: got_inc, job: got_job, instance: got } => {
                prop_assert_eq!(got_from, from);
                prop_assert_eq!(got_inc, incarnation);
                prop_assert_eq!(got_job, JobId::from(job));
                prop_assert!(got.validate().is_ok());
                prop_assert_eq!(got, instance);
            }
            other => prop_assert!(false, "expected announce, got {:?}", other),
        }
    }

    /// Backward-compatibility pin for codec v5: a frame stamped with ANY
    /// pre-v5 version (or a future one) — regardless of what its payload
    /// holds or how the bytes arrive off the socket — decodes to the
    /// typed [`WireError::UnsupportedVersion`] carrying that exact
    /// version. It never panics, and it NEVER misparses the old layout
    /// as current-version fields (no `Ok(Some(_))` is possible).
    #[test]
    fn pre_v5_frames_fail_typed_never_misparse(
        msg in msg_strategy(),
        version in any::<u16>().prop_map(|v| {
            // Every version except the current one (remap collisions).
            if v == ftbb_wire::codec::VERSION { v ^ 1 } else { v }
        }),
        chunk in 1usize..64,
    ) {
        // A perfectly well-formed frame… except for its version stamp.
        // v1..v4 frames on a real socket differ in payload layout too;
        // the version gate must reject them before any payload parsing,
        // so the payload content is irrelevant — the strategy covers
        // every message shape anyway.
        let mut bytes =
            encode_frame(&Envelope { job: JobId::DEFAULT, from: 2, msg }, 1, 1, &[]).bytes.to_vec();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let mut dec = FrameDecoder::new();
        let mut outcome = None;
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            match dec.try_next() {
                Ok(None) => {}
                other => { outcome = Some(other); break; }
            }
        }
        match outcome {
            Some(Err(WireError::UnsupportedVersion(v))) => prop_assert_eq!(v, version),
            other => prop_assert!(
                false,
                "pre-v5 frame must fail typed, got {:?}", other
            ),
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(any::<u8>(), 0..256), chunk in 1usize..32) {
        let mut dec = FrameDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.try_next() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return, // desync detected: reader would drop the conn
                }
            }
        }
    }
}
