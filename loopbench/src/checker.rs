//! The exactly-once, intact, on-time and in-order check of every delivery.
//!
//! The checker knows nothing the broker sent it: it regenerates each
//! expected payload from the seed ([`crate::workload::payload`]) and learns
//! how many messages each topic was sent from the generator's plan. Every
//! delivery of every `(message, subscriber)` pair is classified; nothing
//! is filtered or retried away.

use crate::workload::payload;

/// Verdict counters of a checked run. `attempted` counts
/// `(message, subscriber)` deliveries the generator asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the generator asked for.
    pub attempted: u64,
    /// Distinct expected messages that arrived.
    pub delivered: u64,
    /// Expected messages that never arrived.
    pub lost: u64,
    /// Repeat arrivals of a message already delivered.
    pub duplicated: u64,
    /// Arrivals whose payload differs from the regenerated one, or that
    /// name a topic or sequence number the generator never sent.
    pub corrupted: u64,
    /// First arrivals later than their topic's deadline `D_i`.
    pub late: u64,
    /// First arrivals behind a higher sequence number of the same topic.
    /// Reported on its own (`rt.reorder_ratio`), never as a failure.
    pub reordered: u64,
}

impl Verdict {
    /// Adds another checked stream's counters to these.
    pub fn merge(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.late += other.late;
        self.reordered += other.reordered;
    }

    /// Failed deliveries: lost, duplicated, corrupted or late.
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.corrupted + self.late
    }

    /// Whether the broker's output was correct (no loss, duplicate or
    /// corruption; lateness is a deadline miss, not wrong output).
    pub fn correct(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.corrupted == 0
    }

    /// Failed share of attempted deliveries.
    pub fn miss_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Reordered share of delivered messages.
    pub fn reorder_ratio(&self) -> f64 {
        self.reordered as f64 / self.delivered.max(1) as f64
    }
}

struct TopicTrack {
    deadline_ns: u64,
    /// Messages the generator sent on this topic (seqs `0..sent`).
    sent: u64,
    /// Arrival flags, indexed by seq.
    seen: Vec<bool>,
    /// Highest seq that has arrived.
    high: Option<u64>,
}

/// Checks the deliveries of one subscriber.
pub struct Checker {
    seed: u64,
    payload_len: usize,
    topics: Vec<TopicTrack>,
    verdict: Verdict,
}

impl Checker {
    /// A checker for a stream of `payload_len`-byte messages on topics with
    /// the given deadlines (indexed by topic index).
    pub fn new(seed: u64, payload_len: usize, deadlines_ns: Vec<u64>) -> Checker {
        Checker {
            seed,
            payload_len,
            topics: deadlines_ns
                .into_iter()
                .map(|deadline_ns| TopicTrack {
                    deadline_ns,
                    sent: 0,
                    seen: Vec::new(),
                    high: None,
                })
                .collect(),
            verdict: Verdict::default(),
        }
    }

    /// Records that the generator sent the next message of `topic` (seqs
    /// are assigned per topic from 0, in send order).
    pub fn expect(&mut self, topic: usize) {
        let t = &mut self.topics[topic];
        t.sent += 1;
        t.seen.push(false);
        self.verdict.attempted += 1;
    }

    /// Withdraws the newest expectation of `topic`: the generator planned
    /// that message but never sent it (a closed-loop phase ends when its
    /// time is up, not when its plan is exhausted). Withdraw in reverse
    /// plan order. A withdrawn message that nevertheless arrived was never
    /// sent, so its arrival counts as corrupt.
    pub fn withdraw(&mut self, topic: usize) {
        let t = &mut self.topics[topic];
        t.sent -= 1;
        self.verdict.attempted -= 1;
        if t.seen.pop() == Some(true) {
            self.verdict.delivered -= 1;
            self.verdict.corrupted += 1;
        }
    }

    /// Classifies one arrival: `topic` is `None` for a topic outside the
    /// workload, `latency_ns` is timed from the intended send time.
    pub fn arrive(&mut self, topic: Option<usize>, seq: u64, body: &[u8], latency_ns: u64) {
        let Some(t) = topic.and_then(|i| self.topics.get_mut(i).map(|t| (i, t))) else {
            self.verdict.corrupted += 1;
            return;
        };
        let (index, track) = t;
        if seq >= track.sent {
            self.verdict.corrupted += 1;
            return;
        }
        if body.len() != self.payload_len || body != payload(self.seed, index, seq, body.len()) {
            self.verdict.corrupted += 1;
            return;
        }
        let slot = &mut track.seen[seq as usize];
        if *slot {
            self.verdict.duplicated += 1;
            return;
        }
        *slot = true;
        self.verdict.delivered += 1;
        if latency_ns > track.deadline_ns {
            self.verdict.late += 1;
        }
        match track.high {
            Some(high) if seq < high => self.verdict.reordered += 1,
            _ => track.high = Some(seq),
        }
    }

    /// The verdict so far, counting every expected message that has not
    /// arrived as lost.
    pub fn verdict(&self) -> Verdict {
        let mut v = self.verdict;
        v.lost = v.attempted - v.delivered;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 42;
    const LEN: usize = 16;
    const DEADLINE: u64 = 1_000;

    /// Two topics with three messages each sent.
    fn sent() -> Checker {
        let mut c = Checker::new(SEED, LEN, vec![DEADLINE, DEADLINE]);
        for _ in 0..3 {
            c.expect(0);
            c.expect(1);
        }
        c
    }

    fn good(c: &mut Checker, topic: usize, seq: u64) {
        c.arrive(Some(topic), seq, &payload(SEED, topic, seq, LEN), 10);
    }

    #[test]
    fn clean_stream_passes() {
        let mut c = sent();
        for seq in 0..3 {
            good(&mut c, 0, seq);
            good(&mut c, 1, seq);
        }
        let v = c.verdict();
        assert_eq!((v.attempted, v.delivered, v.failed()), (6, 6, 0));
        assert!(v.correct());
        assert_eq!(v.reordered, 0);
    }

    #[test]
    fn lost_messages_are_counted() {
        let mut c = sent();
        good(&mut c, 0, 0);
        good(&mut c, 1, 2);
        let v = c.verdict();
        assert_eq!((v.lost, v.failed()), (4, 4));
        assert!(!v.correct());
    }

    #[test]
    fn duplicates_are_counted_once_each() {
        let mut c = sent();
        for seq in 0..3 {
            good(&mut c, 0, seq);
            good(&mut c, 1, seq);
        }
        good(&mut c, 0, 1);
        good(&mut c, 0, 1);
        let v = c.verdict();
        assert_eq!((v.duplicated, v.lost, v.delivered), (2, 0, 6));
        assert!(!v.correct());
    }

    #[test]
    fn corrupted_payloads_unknown_topics_and_unsent_seqs_are_counted() {
        let mut c = sent();
        let mut bad = payload(SEED, 0, 0, LEN);
        bad[3] ^= 1;
        c.arrive(Some(0), 0, &bad, 10);
        c.arrive(Some(0), 1, &payload(SEED, 0, 1, LEN - 1), 10);
        c.arrive(Some(1), 2, &payload(SEED, 0, 2, LEN), 10); // other topic's bytes
        c.arrive(None, 0, &payload(SEED, 0, 0, LEN), 10);
        c.arrive(Some(0), 3, &payload(SEED, 0, 3, LEN), 10); // never sent
        let v = c.verdict();
        assert_eq!(v.corrupted, 5);
        // Corrupt arrivals do not count as deliveries: all six are lost.
        assert_eq!((v.delivered, v.lost), (0, 6));
    }

    #[test]
    fn reorders_are_reported_but_are_not_failures() {
        let mut c = sent();
        good(&mut c, 0, 2);
        good(&mut c, 0, 0);
        good(&mut c, 0, 1);
        for seq in 0..3 {
            good(&mut c, 1, seq);
        }
        let v = c.verdict();
        assert_eq!(v.reordered, 2);
        assert_eq!(v.failed(), 0);
        assert!(v.correct());
        assert!((v.reorder_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn withdrawn_messages_are_neither_attempted_nor_lost() {
        let mut c = sent();
        for seq in 0..3 {
            good(&mut c, 0, seq);
        }
        good(&mut c, 1, 0);
        good(&mut c, 1, 2); // arrives, but is withdrawn below: never sent
        c.withdraw(1);
        c.withdraw(1);
        let v = c.verdict();
        assert_eq!((v.attempted, v.delivered, v.lost), (4, 4, 0));
        assert_eq!(v.corrupted, 1);
    }

    #[test]
    fn late_arrivals_miss_the_deadline() {
        let mut c = sent();
        for seq in 0..3 {
            c.arrive(Some(0), seq, &payload(SEED, 0, seq, LEN), DEADLINE + seq);
            good(&mut c, 1, seq);
        }
        let v = c.verdict();
        // seq 0 arrives exactly at the deadline: on time.
        assert_eq!((v.late, v.failed()), (2, 2));
        assert!(v.correct());
        assert!((v.miss_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }
}
