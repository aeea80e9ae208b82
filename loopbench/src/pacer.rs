//! The open-loop pacer: message `k` of a phase is due at a fixed instant
//! `start + k / rate`, whatever the system under test is doing.
//!
//! Each message carries its *intended* send time as `created_at`, and its
//! latency is timed from there. If the generator stalls (descheduled, or
//! blocked on a full socket), the messages due during the stall leave late
//! in a burst, and their latency includes the time they should already have
//! been on their way. That corrects for coordinated omission; the lateness
//! itself is reported as `gen.late_*` so a run whose generator could not
//! keep its schedule is visible as such.

/// What the pacer wants next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Message `index` is due; it was intended at `intended_ns` and is
    /// being sent `late_ns` after that.
    Send {
        /// Position in the phase's stream.
        index: u64,
        /// The intended send time (becomes the message's `created_at`).
        intended_ns: u64,
        /// How far behind its schedule the generator is.
        late_ns: u64,
    },
    /// Nothing is due before `until_ns`.
    Wait {
        /// The next message's intended time.
        until_ns: u64,
    },
    /// Every message of the phase has been sent.
    Done,
}

/// A fixed-rate schedule of `count` messages starting at `start_ns`.
#[derive(Clone, Debug)]
pub struct Pacer {
    start_ns: u64,
    rate: u64,
    count: u64,
    next: u64,
}

impl Pacer {
    /// A schedule of `count` messages at `rate` per second from `start_ns`.
    pub fn new(start_ns: u64, rate: u64, count: u64) -> Pacer {
        assert!(rate > 0, "a paced phase needs a positive rate");
        Pacer {
            start_ns,
            rate,
            count,
            next: 0,
        }
    }

    /// The intended send time of message `index`. Computed from the start,
    /// never accumulated, so rounding cannot drift the rate.
    pub fn intended(&self, index: u64) -> u64 {
        self.start_ns + (index as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// The next step at clock reading `now_ns`. A message is handed out at
    /// most once; a caller that is behind gets every overdue message back
    /// to back.
    pub fn poll(&mut self, now_ns: u64) -> Next {
        if self.next >= self.count {
            return Next::Done;
        }
        let intended_ns = self.intended(self.next);
        if now_ns < intended_ns {
            return Next::Wait {
                until_ns: intended_ns,
            };
        }
        let index = self.next;
        self.next += 1;
        Next::Send {
            index,
            intended_ns,
            late_ns: now_ns - intended_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a schedule against a simulated clock and a zero-latency system
    /// (a message is delivered the instant it leaves). The generator
    /// oversleeps by `stall_periods` periods while waiting for message
    /// `stall_at`. Returns per message `(late_ns, latency_ns)`, latency timed
    /// from the intended send time.
    fn simulate(rate: u64, count: u64, stall_at: u64, stall_periods: u64) -> Vec<(u64, u64)> {
        let period = 1_000_000_000 / rate;
        let mut pacer = Pacer::new(1_000, rate, count);
        let mut now = 1_000;
        let mut out = Vec::new();
        loop {
            match pacer.poll(now) {
                Next::Send {
                    index,
                    intended_ns,
                    late_ns,
                } => {
                    assert_eq!(index, out.len() as u64, "each message once, in order");
                    out.push((late_ns, now - intended_ns));
                }
                Next::Wait { until_ns } => {
                    now = until_ns;
                    if pacer.next == stall_at {
                        now += stall_periods * period;
                    }
                }
                Next::Done => return out,
            }
        }
    }

    #[test]
    fn on_schedule_messages_are_never_late() {
        let out = simulate(1000, 50, u64::MAX, 0);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|&(late, lat)| late == 0 && lat == 0));
    }

    #[test]
    fn a_stall_of_k_periods_surfaces_in_later_latency_and_lateness() {
        let (rate, k, at) = (1000, 5, 10);
        let period = 1_000_000_000 / rate;
        let out = simulate(rate, 40, at, k);
        // Messages before the stall are on time.
        assert!(out[..at as usize].iter().all(|&(late, _)| late == 0));
        // The stalled message and the k-1 due during the stall leave in a
        // burst at the end of the stall; each one's latency is the time it
        // should already have been on its way.
        for j in 0..k {
            let (late, latency) = out[(at + j) as usize];
            assert_eq!(late, (k - j) * period, "message {}", at + j);
            assert_eq!(latency, late, "latency is timed from the intended time");
        }
        // The schedule is not shifted: the generator is back on time as soon
        // as the burst has left.
        assert!(out[(at + k) as usize..].iter().all(|&(late, _)| late == 0));
        let max_late = out.iter().map(|&(late, _)| late).max().expect("samples");
        assert_eq!(max_late, k * period, "gen.late_max shows the stall");
    }

    #[test]
    fn intended_times_do_not_drift() {
        let p = Pacer::new(0, 3, 10);
        assert_eq!(p.intended(0), 0);
        assert_eq!(p.intended(1), 333_333_333);
        assert_eq!(p.intended(3), 1_000_000_000);
        assert_eq!(p.intended(9), 3_000_000_000);
    }
}
