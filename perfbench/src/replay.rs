//! Prices the wire and crypto layers on the messages a traced run actually
//! carried: each sampled message is encoded and decoded through the public
//! codec, its frame hashed, and its signing bytes signed and verified, with
//! the time per call measured over repeated passes.

use seemore_crypto::{Digest, KeyStore};
use seemore_types::{NodeId, ReplicaId};
use seemore_wire::{codec, Batch, ClientRequest, Message, MessageKind, SignedPayload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum time spent timing one quantity.
const TIMING_BUDGET: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, Copy, Default)]
pub struct KindCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_bytes: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Prices {
    pub kinds: BTreeMap<MessageKind, KindCost>,
    pub sha256_ns_per_kib: f64,
    pub sign_ns: f64,
    pub verify_ns: f64,
    pub request_digest_ns: f64,
    pub batch_digest_ns: f64,
}

/// Mean time per item of `work` over `items`, repeating whole passes until
/// [`TIMING_BUDGET`] has elapsed. 0 for no items.
fn per_item<T>(items: &[T], mut work: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || start.elapsed() < TIMING_BUDGET {
        for item in items {
            work(item);
        }
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * items.len() as u64) as f64
}

fn signing_bytes(message: &Message) -> Option<Vec<u8>> {
    Some(match message {
        Message::Request(m) => m.signing_bytes(),
        Message::Reply(m) => m.signing_bytes(),
        Message::ReadRequest(m) => m.signing_bytes(),
        Message::ReadReply(m) => m.signing_bytes(),
        Message::Prepare(m) => m.signing_bytes(),
        Message::PrePrepare(m) => m.signing_bytes(),
        Message::Accept(m) => m.signing_bytes(),
        Message::PbftPrepare(m) => m.signing_bytes(),
        Message::Commit(m) => m.signing_bytes(),
        Message::Inform(m) => m.signing_bytes(),
        Message::Checkpoint(m) => m.signing_bytes(),
        Message::ViewChange(m) => m.signing_bytes(),
        Message::NewView(m) => m.signing_bytes(),
        Message::ModeChange(m) => m.signing_bytes(),
        Message::Redirect(m) => m.signing_bytes(),
        Message::Recovery(m) => m.signing_bytes(),
        Message::StateRequest(_) | Message::StateResponse(_) => return None,
    })
}

fn batch_of(message: &Message) -> Option<&Batch> {
    match message {
        Message::Prepare(p) => Some(&p.batch),
        Message::PrePrepare(p) => Some(&p.batch),
        _ => None,
    }
}

pub fn price(samples: &BTreeMap<MessageKind, Vec<Message>>, keystore: &KeyStore) -> Prices {
    let mut prices = Prices::default();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for (kind, messages) in samples {
        let encoded: Vec<Vec<u8>> = messages.iter().map(codec::encode).collect();
        let cost = KindCost {
            encode_ns: per_item(messages, |m| {
                black_box(codec::encode(black_box(m)));
            }),
            decode_ns: per_item(&encoded, |bytes| {
                black_box(
                    codec::decode(black_box(bytes)).expect("a frame the codec produced decodes"),
                );
            }),
            frame_bytes: encoded.iter().map(Vec::len).sum::<usize>() as f64
                / encoded.len().max(1) as f64,
        };
        prices.kinds.insert(*kind, cost);
        frames.extend(encoded);
    }

    let all: Vec<&Message> = samples.values().flatten().collect();
    let total_kib = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let per_frame = per_item(&frames, |bytes| {
        black_box(Digest::of_bytes(black_box(bytes)));
    });
    if total_kib > 0.0 {
        prices.sha256_ns_per_kib = per_frame * frames.len() as f64 / total_kib;
    }

    let node = NodeId::Replica(ReplicaId(0));
    let signer = keystore
        .signer_for(node)
        .expect("the key store has replica 0");
    let signed: Vec<Vec<u8>> = all.iter().filter_map(|m| signing_bytes(m)).collect();
    let signatures: Vec<_> = signed.iter().map(|b| signer.sign(b)).collect();
    prices.sign_ns = per_item(&signed, |bytes| {
        black_box(signer.sign(black_box(bytes)));
    });
    let pairs: Vec<(&Vec<u8>, _)> = signed.iter().zip(signatures).collect();
    prices.verify_ns = per_item(&pairs, |(bytes, signature)| {
        assert!(
            keystore.verify(node, black_box(bytes), signature),
            "a fresh signature verifies"
        );
    });

    let batches: Vec<&Batch> = all.iter().filter_map(|m| batch_of(m)).collect();
    let mut requests: Vec<&ClientRequest> = batches.iter().flat_map(|b| b.requests()).collect();
    requests.extend(all.iter().filter_map(|m| match m {
        Message::Request(r) => Some(r),
        _ => None,
    }));
    prices.request_digest_ns = per_item(&requests, |r| {
        black_box(black_box(r).digest());
    });
    prices.batch_digest_ns = per_item(&batches, |b| {
        black_box(black_box(b).digest());
    });
    prices
}
