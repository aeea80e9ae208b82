//! The benchmark's workloads and the seed-driven message stream.
//!
//! A workload fixes everything about the broker's input except the seed:
//! the topic set (Table-2 categories under `NetworkParams::paper_example`),
//! the payload size, and the offered rates of each phase. The seed picks
//! the topic of every message and the bytes of every payload, so the same
//! seed always produces the same stream, and the checker can regenerate any
//! message from `(seed, topic, seq)` alone.

use frame_core::{admit, AdmittedTopic};
use frame_types::{NetworkParams, TopicId, TopicSpec};

/// One workload: a topic set, a payload size and the phase rates.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Stable name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Table-2 categories the topics cycle through.
    pub categories: &'static [u8],
    /// Number of topics.
    pub topics: usize,
    /// Payload bytes per message.
    pub payload_len: usize,
    /// Open-loop rate of the `nominal` phase, in messages per second.
    pub nominal_rate: u64,
    /// Open-loop rate of the `high` phase, in messages per second.
    pub high_rate: u64,
    /// In-flight window of the closed-loop saturation phase, in messages.
    /// Kept small enough that a full window of delivery frames fits in the
    /// reactor's per-connection write queue, so saturation never drops.
    pub window: u64,
    /// Whether a Backup broker process is attached over the TCP bridge.
    pub backup: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // Per-message overhead dominates; Proposition 1 suppresses replication
    // for categories 0/1/3/4, so the replication path is idle.
    Workload {
        name: "edge_small",
        categories: &[0, 1, 3, 4],
        topics: 256,
        payload_len: 16,
        nominal_rate: 8_000,
        high_rate: 20_000,
        window: 256,
        backup: false,
    },
    // Same ingress and egress as edge_small, but categories 2 and 5 must
    // be replicated: two EDF jobs per message plus Replica/Prune traffic.
    Workload {
        name: "edge_replicated",
        categories: &[2, 5],
        topics: 256,
        payload_len: 16,
        nominal_rate: 8_000,
        high_rate: 16_000,
        window: 256,
        backup: true,
    },
    // Byte-proportional cost dominates: 1 KiB payloads on a few
    // dispatch-only topics. The rates are about 1/5 and 1/2 of this
    // workload's saturation on one broker core; lower rates leave a run too
    // few deliveries for a p99 that repeats.
    Workload {
        name: "payload_1k",
        categories: &[0, 1, 3, 4],
        topics: 16,
        payload_len: 1024,
        nominal_rate: 2_000,
        high_rate: 5_000,
        window: 32,
        backup: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The network parameters every workload is admitted under.
    pub fn net() -> NetworkParams {
        NetworkParams::paper_example()
    }

    /// Topic `index`'s specification (topic ids start at 1).
    pub fn spec(&self, index: usize) -> TopicSpec {
        let category = self.categories[index % self.categories.len()];
        TopicSpec::category(category, topic_id(index))
    }

    /// Every topic, admitted under [`Workload::net`].
    ///
    /// # Errors
    ///
    /// Returns the admission failure of the first topic that is rejected.
    pub fn admitted(&self) -> Result<Vec<AdmittedTopic>, String> {
        (0..self.topics)
            .map(|i| admit(&self.spec(i), &Workload::net()).map_err(|e| e.to_string()))
            .collect()
    }

    /// Deadline `D_i` of topic `index`, in nanoseconds.
    pub fn deadline_ns(&self, index: usize) -> u64 {
        self.spec(index).deadline.as_nanos()
    }
}

/// The topic id of topic `index`.
pub fn topic_id(index: usize) -> TopicId {
    TopicId(index as u32 + 1)
}

/// The topic index of a topic id, if it belongs to a workload of `topics`
/// topics.
pub fn topic_index(id: TopicId, topics: usize) -> Option<usize> {
    let i = (id.0 as usize).checked_sub(1)?;
    (i < topics).then_some(i)
}

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// The topic index of every message of one phase, drawn from the seed.
/// `phase` separates the streams of a run's phases.
pub fn topic_plan(seed: u64, phase: u64, topics: usize, count: usize) -> Vec<u16> {
    let mut rng = SplitMix::new(seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..count).map(|_| rng.below(topics) as u16).collect()
}

/// The payload of message `(topic, seq)`: `len` bytes drawn from the seed.
/// The checker calls this again to verify every delivered payload.
pub fn payload(seed: u64, topic: usize, seq: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(
        seed ^ (topic as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ seq.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
    );
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_admits_and_replication_matches_its_purpose() {
        for w in WORKLOADS {
            let admitted = w.admitted().expect("admits");
            assert_eq!(admitted.len(), w.topics);
            for (i, a) in admitted.iter().enumerate() {
                let replicated =
                    frame_core::replication_needed(&a.spec, &Workload::net()).expect("bounds");
                assert_eq!(replicated, w.backup, "{} topic {i}", w.name);
            }
        }
    }

    #[test]
    fn stream_is_a_function_of_the_seed() {
        assert_eq!(topic_plan(7, 1, 256, 100), topic_plan(7, 1, 256, 100));
        assert_ne!(topic_plan(7, 1, 256, 100), topic_plan(8, 1, 256, 100));
        assert_ne!(topic_plan(7, 1, 256, 100), topic_plan(7, 2, 256, 100));
        assert!(topic_plan(7, 1, 16, 1000).iter().all(|&t| t < 16));
        assert_eq!(payload(3, 4, 5, 1024), payload(3, 4, 5, 1024));
        assert_ne!(payload(3, 4, 5, 16), payload(3, 4, 6, 16));
        assert_eq!(payload(3, 4, 5, 13).len(), 13);
    }

    #[test]
    fn topic_ids_round_trip() {
        assert_eq!(topic_index(topic_id(0), 4), Some(0));
        assert_eq!(topic_index(topic_id(3), 4), Some(3));
        assert_eq!(topic_index(topic_id(4), 4), None);
        assert_eq!(topic_index(TopicId(0), 4), None);
    }
}
