//! The benchmark's workloads: what each one runs, why it exists, and the
//! operations and values its clients issue.

use seemore_app::{KvOp, KvResult, KvStore};
use seemore_types::{Mode, OpClass};

/// One workload: a SeeMoRe mode, an operation mix and a fault schedule.
///
/// Every workload runs the same deployment (c = 1, m = 1, so six replicas,
/// `ProtocolConfig::default()`), the same `KvStore` with 64-byte values
/// preloaded on every replica, and two closed-loop clients over the reactor
/// runtime with client multiplexing.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses and the changes it
    /// should and should not see. `BENCHMARK.json` carries the same text.
    pub why: &'static str,
    pub mode: Mode,
    /// Size of the keyspace, all of it preloaded before spawn.
    pub keys: u32,
    /// Share of operations that are GETs on the read fast path.
    pub read_share: f64,
    /// Zipf exponent of the key choice; `None` is uniform.
    pub zipf: Option<f64>,
    /// Whether replicas keep a file-backed WAL and the current primary is
    /// crashed and recovered during the measured window.
    pub durable_crash: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lion-write",
        why: "Lion, all PUTs on 16384 uniform keys: the headline mode on the full agreement path, with hashing, codec, handler and 1.3 MB state-digest work",
        mode: Mode::Lion,
        keys: 16_384,
        read_share: 0.0,
        zipf: None,
        durable_crash: false,
    },
    Workload {
        name: "lion-read-hot",
        why: "Lion, 90% GETs on the read fast path over 256 Zipf-0.99 keys: skips agreement and state-digest cost, so only reply, verify and codec changes move it",
        mode: Mode::Lion,
        keys: 256,
        read_share: 0.9,
        zipf: Some(0.99),
        durable_crash: false,
    },
    Workload {
        name: "peacock-write",
        why: "Peacock, all PUTs on 16384 uniform keys: agreement among Byzantine public replicas, the heaviest signing, verifying and fan-out path",
        mode: Mode::Peacock,
        keys: 16_384,
        read_share: 0.0,
        zipf: None,
        durable_crash: false,
    },
    Workload {
        name: "lion-durable-crash",
        why: "Lion, all PUTs on 16384 keys with a file WAL; the idle primary is crashed and recovered mid-run: the only run of store, view-change and catch-up work",
        mode: Mode::Lion,
        keys: 16_384,
        read_share: 0.0,
        zipf: None,
        durable_crash: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Length of every stored value.
pub const VALUE_LEN: usize = 64;
/// The writer id stamped on preloaded values.
pub const PRELOAD_WRITER: u32 = u32::MAX;

pub fn key_bytes(key: u32) -> Vec<u8> {
    format!("key{key:05}").into_bytes()
}

/// Who wrote a value: the writing client (or [`PRELOAD_WRITER`]), that
/// client's PUT sequence number, and the key it was written to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp {
    pub writer: u32,
    pub seq: u64,
    pub key: u32,
}

/// Encodes a stamp as a 64-byte value: the stamp fields followed by filler
/// derived from them, so a torn or foreign value fails [`decode_value`].
pub fn encode_value(stamp: Stamp) -> Vec<u8> {
    let mut out = Vec::with_capacity(VALUE_LEN);
    out.extend_from_slice(&stamp.writer.to_le_bytes());
    out.extend_from_slice(&stamp.seq.to_le_bytes());
    out.extend_from_slice(&stamp.key.to_le_bytes());
    for i in out.len()..VALUE_LEN {
        out.push(filler(stamp, i));
    }
    out
}

pub fn decode_value(value: &[u8]) -> Option<Stamp> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let stamp = Stamp {
        writer: u32::from_le_bytes(value[0..4].try_into().ok()?),
        seq: u64::from_le_bytes(value[4..12].try_into().ok()?),
        key: u32::from_le_bytes(value[12..16].try_into().ok()?),
    };
    value[16..]
        .iter()
        .enumerate()
        .all(|(i, b)| *b == filler(stamp, i + 16))
        .then_some(stamp)
}

fn filler(stamp: Stamp, index: usize) -> u8 {
    (stamp.seq as u8)
        .wrapping_mul(31)
        .wrapping_add(stamp.key as u8)
        .wrapping_add(stamp.writer as u8)
        .wrapping_add(index as u8)
}

/// The store every replica starts from: every key holds its preload value.
pub fn preloaded_store(keys: u32) -> KvStore {
    let mut store = KvStore::new();
    for key in 0..keys {
        store.apply(KvOp::Put {
            key: key_bytes(key),
            value: encode_value(Stamp {
                writer: PRELOAD_WRITER,
                seq: 0,
                key,
            }),
        });
    }
    store
}

/// SplitMix64: a small seeded generator, so inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One operation a client issues, with what it expects back.
#[derive(Debug, Clone)]
pub struct Op {
    pub bytes: Vec<u8>,
    pub class: OpClass,
    pub key: u32,
    /// The stamp written, for a PUT.
    pub put: Option<Stamp>,
}

/// A client's seeded operation stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    writer: u32,
    next_seq: u64,
    keys: u32,
    read_share: f64,
    /// Cumulative key weights for a Zipf choice.
    zipf_cdf: Option<Vec<f64>>,
}

impl OpStream {
    pub fn new(workload: &Workload, seed: u64, writer: u32) -> Self {
        let zipf_cdf = workload.zipf.map(|s| {
            let mut total = 0.0;
            let mut cdf: Vec<f64> = (0..workload.keys)
                .map(|k| {
                    total += 1.0 / f64::from(k + 1).powf(s);
                    total
                })
                .collect();
            for weight in &mut cdf {
                *weight /= total;
            }
            cdf
        });
        OpStream {
            rng: Rng::new(seed ^ (u64::from(writer) + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            writer,
            next_seq: 0,
            keys: workload.keys,
            read_share: workload.read_share,
            zipf_cdf,
        }
    }

    fn key(&mut self) -> u32 {
        match &self.zipf_cdf {
            Some(cdf) => {
                let u = self.rng.unit();
                cdf.partition_point(|w| *w <= u).min(cdf.len() - 1) as u32
            }
            None => (self.rng.next_u64() % u64::from(self.keys)) as u32,
        }
    }

    /// A PUT of `key` with this writer's next stamp.
    pub fn put(&mut self, key: u32) -> Op {
        let stamp = Stamp {
            writer: self.writer,
            seq: self.next_seq,
            key,
        };
        self.next_seq += 1;
        Op {
            bytes: KvOp::Put {
                key: key_bytes(key),
                value: encode_value(stamp),
            }
            .encode(),
            class: OpClass::Write,
            key,
            put: Some(stamp),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let read = self.read_share > 0.0 && self.rng.unit() < self.read_share;
        let key = self.key();
        if read {
            Op {
                bytes: KvOp::Get {
                    key: key_bytes(key),
                }
                .encode(),
                class: OpClass::Read,
                key,
                put: None,
            }
        } else {
            self.put(key)
        }
    }
}

/// What a reply said, reduced to what the correctness gate checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    PutOk,
    Found(Stamp),
    NotFound,
    /// The reply did not decode, or did not fit the operation.
    Invalid,
}

pub fn classify_reply(class: OpClass, result: &[u8]) -> Reply {
    match (class, KvResult::decode(result)) {
        (OpClass::Write, Some(KvResult::Ok)) => Reply::PutOk,
        (OpClass::Read, Some(KvResult::NotFound)) => Reply::NotFound,
        (OpClass::Read, Some(KvResult::Value(value))) => match decode_value(&value) {
            Some(stamp) => Reply::Found(stamp),
            None => Reply::Invalid,
        },
        _ => Reply::Invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let stamp = Stamp {
            writer: 1,
            seq: 77,
            key: 300,
        };
        let mut value = encode_value(stamp);
        assert_eq!(value.len(), VALUE_LEN);
        assert_eq!(decode_value(&value), Some(stamp));
        value[40] ^= 1;
        assert_eq!(decode_value(&value), None);
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let w = find("lion-read-hot").unwrap();
        let ops = |seed| {
            let mut s = OpStream::new(w, seed, 0);
            (0..64).map(|_| s.next_op().bytes).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn zipf_stream_favours_low_keys_and_stays_in_range() {
        let w = find("lion-read-hot").unwrap();
        let mut s = OpStream::new(w, 9, 1);
        let keys: Vec<u32> = (0..20_000).map(|_| s.next_op().key).collect();
        assert!(keys.iter().all(|k| *k < w.keys));
        let hot = keys.iter().filter(|k| **k == 0).count();
        let cold = keys.iter().filter(|k| **k == 200).count();
        assert!(hot > 20 * cold.max(1), "hot {hot} cold {cold}");
    }
}
