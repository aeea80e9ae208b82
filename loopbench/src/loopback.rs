//! The loopback session: broker child process(es), one publisher and one
//! subscriber connection, and the phases driven over them.
//!
//! The generator uses two threads: a publisher thread that paces the
//! stream onto its connection, and the calling thread, which reads the
//! subscriber connection, decodes every delivery, times it and hands it to
//! the [`Checker`].

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use frame_clock::{Clock, MonotonicClock};
use frame_rt::{Decoded, FrameDecoder, WireMsg};
use frame_types::wire::WireCodec;
use frame_types::{Message, PublisherId, SeqNo, Time};

use crate::checker::{Checker, Verdict};
use crate::child::{read_until, BrokerProc, SUBSCRIBER};
use crate::pacer::{Next, Pacer};
use crate::spans::Span;
use crate::workload::{payload, topic_id, topic_index, topic_plan, Workload};

/// How long a phase waits for its last deliveries after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How the publisher offers a phase's messages.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: `count` messages at a fixed `rate` per second.
    Open {
        /// Messages per second.
        rate: u64,
        /// Messages in the phase.
        count: u64,
    },
    /// Closed loop: keep at most `window` messages in flight for
    /// `duration`.
    Closed {
        /// Maximum messages sent but not yet delivered.
        window: u64,
        /// How long to keep sending.
        duration: Duration,
    },
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Messages sent.
    pub sent: u64,
    /// Start of the sending window (clock ns).
    pub start_ns: u64,
    /// End of the sending window (clock ns).
    pub end_ns: u64,
    /// Per delivery, in arrival order: decoded time minus intended send
    /// time, in ns.
    pub latencies_ns: Vec<u64>,
    /// Per delivery, in arrival order: decoded time (clock ns).
    pub arrivals_ns: Vec<u64>,
    /// Per send: actual send start minus intended send time, in ns.
    pub late_ns: Vec<u64>,
    /// Delivery frame bytes read from the subscriber connection.
    pub bytes_in: u64,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// Sets the calling thread's timer slack to 1 ns so the pacer's sleeps end
/// close to the intended send times (the default slack is 50 µs, most of a
/// period at the nominal rates).
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2, reads no caller
    // memory and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Pins the calling thread to the generator's CPU while alive, and
/// restores its previous CPU set on drop. (Restoring matters: the broker
/// children are forked from this thread and would inherit the pin.)
struct CpuPin {
    previous: Option<u64>,
}

impl CpuPin {
    fn generator() -> CpuPin {
        let previous = crate::sys::affinity();
        let pinned = crate::sys::set_affinity(1 << crate::sys::generator_cpu());
        CpuPin {
            previous: previous.filter(|_| pinned),
        }
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        if let Some(mask) = self.previous {
            crate::sys::set_affinity(mask);
        }
    }
}

/// The span id of message `(topic, seq)`: shared by all its spans.
fn msg_id(topic: usize, seq: u64) -> u64 {
    ((topic as u64) << 40) | seq
}

/// A connected loopback session.
pub struct Session {
    workload: Workload,
    seed: u64,
    clock: MonotonicClock,
    brokers: Vec<BrokerProc>,
    publisher: TcpStream,
    subscriber: TcpStream,
    decoder: FrameDecoder,
    checker: Checker,
    next_seq: Vec<u64>,
    phases: u64,
}

impl Session {
    /// Spawns the broker process(es), connects the subscriber and the
    /// publisher, and waits until the subscription is live. Returns the
    /// session and the set-up time in seconds.
    ///
    /// # Errors
    ///
    /// Spawn, connection or protocol failures.
    pub fn setup(workload: Workload, seed: u64) -> Result<(Session, f64), String> {
        let started = Instant::now();
        let mut brokers = Vec::new();
        if workload.backup {
            brokers.push(BrokerProc::spawn(&workload, "backup", None)?);
        }
        let backup_addr = brokers.first().map(|b| b.addr);
        brokers.push(BrokerProc::spawn(&workload, "primary", backup_addr)?);
        let addr = brokers.last().expect("primary").addr;
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        };
        let mut subscriber = connect()?;
        let mut codec = WireCodec::new();
        // The reactor handles a connection's frames in order, so the reply
        // to a read-only Trace request proves the subscription is
        // registered. (A Poll would do as well, but the reactor parks poll
        // acks until its next wakeup, up to 25 ms later, and a Stats reply
        // renders every topic's histograms.)
        for msg in [WireMsg::Subscribe(SUBSCRIBER), WireMsg::Trace] {
            codec
                .encode_into(&mut subscriber, &msg)
                .map_err(|e| e.to_string())?;
        }
        let publisher = connect()?;
        subscriber
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut decoder = FrameDecoder::new();
        read_until(&mut subscriber, &mut decoder, |m| {
            matches!(m, WireMsg::TraceJson(_)).then_some(())
        })?;
        let setup_s = started.elapsed().as_secs_f64();
        let deadlines = (0..workload.topics)
            .map(|i| workload.deadline_ns(i))
            .collect();
        Ok((
            Session {
                workload,
                seed,
                clock: MonotonicClock::new(),
                brokers,
                publisher,
                subscriber,
                decoder,
                checker: Checker::new(seed, workload.payload_len, deadlines),
                next_seq: vec![0; workload.topics],
                phases: 0,
            },
            setup_s,
        ))
    }

    /// The Primary broker process.
    pub fn primary(&self) -> &BrokerProc {
        self.brokers.last().expect("a session has a primary")
    }

    /// Summed `utime + stime` of the broker processes, in µs.
    ///
    /// # Errors
    ///
    /// A broker process is gone.
    pub fn broker_cpu_us(&self) -> Result<f64, String> {
        self.brokers
            .iter()
            .map(|b| crate::sys::process_cpu_us(b.pid()))
            .sum()
    }

    /// Summed peak RSS of the broker processes, in MiB.
    ///
    /// # Errors
    ///
    /// A broker process is gone.
    pub fn broker_rss_mb(&self) -> Result<f64, String> {
        self.brokers
            .iter()
            .map(|b| crate::sys::peak_rss_mb(b.pid()))
            .sum()
    }

    /// The checker's verdict over every phase so far.
    pub fn verdict(&self) -> Verdict {
        self.checker.verdict()
    }

    /// Stops the broker processes.
    pub fn close(self) {
        drop(self.publisher);
        drop(self.subscriber);
        for b in self.brokers.into_iter().rev() {
            b.stop();
        }
    }

    /// Runs one phase: offers `load`, reads every delivery until all sent
    /// messages arrived or the drain timed out, and checks each one.
    /// Records spans when `traced`.
    ///
    /// # Errors
    ///
    /// Socket failures on either connection.
    pub fn run_phase(&mut self, load: Load, traced: bool) -> Result<PhaseOutcome, String> {
        self.phases += 1;
        let planned = match load {
            Load::Open { count, .. } => count,
            // Room for 500k msgs/s, well past what one broker core reaches.
            Load::Closed { window, duration } => window + duration.as_millis() as u64 * 500,
        };
        let plan = topic_plan(
            self.seed,
            self.phases,
            self.workload.topics,
            planned as usize,
        );
        for &t in &plan {
            self.checker.expect(t as usize);
        }
        let sent = AtomicU64::new(0);
        let delivered = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut out = PhaseOutcome::default();
        let mut next_seq = self.next_seq.clone();
        let start_ns = self.clock.now().as_nanos();
        let end_ns = match load {
            Load::Open { rate, count } => {
                start_ns + (count as u128 * 1_000_000_000 / rate as u128) as u64
            }
            Load::Closed { duration, .. } => start_ns + duration.as_nanos() as u64,
        };
        out.start_ns = start_ns;
        out.end_ns = end_ns;
        let publisher = Publisher {
            workload: self.workload,
            seed: self.seed,
            clock: &self.clock,
            plan: &plan,
            load,
            start_ns,
            end_ns,
            traced,
            sent: &sent,
            delivered: &delivered,
        };
        let receiver = Receiver {
            topics: self.workload.topics,
            clock: &self.clock,
            traced,
            sent: &sent,
            delivered: &delivered,
            done: &done,
        };
        let (stream, subscriber, decoder, checker) = (
            &mut self.publisher,
            &mut self.subscriber,
            &mut self.decoder,
            &mut self.checker,
        );
        // The publisher thread inherits the pin when it is spawned.
        let pin = CpuPin::generator();
        let (late_ns, spans) = std::thread::scope(|scope| -> Result<_, String> {
            let sender = scope.spawn(|| {
                let r = publisher.run(stream, &mut next_seq);
                done.store(true, Ordering::Release);
                r
            });
            let received = receiver.run(subscriber, decoder, checker, sender.thread(), &mut out);
            let published = sender.join().map_err(|_| "publisher thread panicked")?;
            received?;
            published
        })?;
        drop(pin);
        self.next_seq = next_seq;
        out.sent = sent.load(Ordering::Acquire);
        for &t in plan[out.sent as usize..].iter().rev() {
            self.checker.withdraw(t as usize);
        }
        out.late_ns = late_ns;
        out.spans.extend(spans);
        Ok(out)
    }
}

/// The publisher thread's view of a phase.
struct Publisher<'a> {
    workload: Workload,
    seed: u64,
    clock: &'a MonotonicClock,
    plan: &'a [u16],
    load: Load,
    start_ns: u64,
    end_ns: u64,
    traced: bool,
    sent: &'a AtomicU64,
    delivered: &'a AtomicU64,
}

impl Publisher<'_> {
    /// Sends the phase's messages; returns each send's lateness and, when
    /// traced, the send spans.
    fn run(
        &self,
        stream: &mut TcpStream,
        next_seq: &mut [u64],
    ) -> Result<(Vec<u64>, Vec<Span>), String> {
        tighten_timer_slack();
        let mut codec = WireCodec::new();
        let mut late = Vec::with_capacity(self.plan.len().min(1 << 20));
        let mut spans = Vec::new();
        let mut pacer = match self.load {
            Load::Open { rate, count } => Some(Pacer::new(self.start_ns, rate, count)),
            Load::Closed { .. } => None,
        };
        let mut index = 0u64;
        loop {
            let now = self.clock.now().as_nanos();
            let intended_ns = match (&mut pacer, self.load) {
                (Some(pacer), _) => match pacer.poll(now) {
                    Next::Send {
                        intended_ns,
                        late_ns,
                        ..
                    } => {
                        late.push(late_ns);
                        intended_ns
                    }
                    Next::Wait { until_ns } => {
                        std::thread::sleep(Duration::from_nanos(until_ns - now));
                        continue;
                    }
                    Next::Done => break,
                },
                (None, Load::Closed { window, .. }) => {
                    if now >= self.end_ns || index as usize >= self.plan.len() {
                        break;
                    }
                    if index - self.delivered.load(Ordering::Acquire) >= window {
                        // The receiver unparks us after each read; the
                        // timeout only bounds a missed wake-up.
                        std::thread::park_timeout(Duration::from_millis(1));
                        continue;
                    }
                    now
                }
                (None, Load::Open { .. }) => unreachable!("open loads always pace"),
            };
            let topic = self.plan[index as usize] as usize;
            let seq = next_seq[topic];
            next_seq[topic] += 1;
            let msg = Message::new(
                topic_id(topic),
                PublisherId(0),
                SeqNo(seq),
                Time::from_nanos(intended_ns),
                payload(self.seed, topic, seq, self.workload.payload_len),
            );
            let encode_start = self.clock.now().as_nanos();
            let frame = codec
                .encode(&WireMsg::Publish(msg))
                .map_err(|e| e.to_string())?;
            let encode_end = self.clock.now().as_nanos();
            frame.write_to(stream).map_err(|e| e.to_string())?;
            index += 1;
            self.sent.store(index, Ordering::Release);
            if self.traced {
                let id = msg_id(topic, seq);
                let send_end = self.clock.now().as_nanos();
                spans.push(Span {
                    msg: id,
                    name: "gen.send",
                    parent: Some("e2e"),
                    start_ns: now,
                    end_ns: send_end,
                });
                spans.push(Span {
                    msg: id,
                    name: "wire.publish_encode",
                    parent: Some("gen.send"),
                    start_ns: encode_start,
                    end_ns: encode_end,
                });
            }
        }
        Ok((late, spans))
    }
}

/// The receiving thread's view of a phase.
struct Receiver<'a> {
    topics: usize,
    clock: &'a MonotonicClock,
    traced: bool,
    sent: &'a AtomicU64,
    delivered: &'a AtomicU64,
    done: &'a AtomicBool,
}

impl Receiver<'_> {
    /// Reads and checks deliveries until every sent message arrived, or the
    /// publisher is done and the drain timed out.
    fn run(
        &self,
        stream: &mut TcpStream,
        decoder: &mut FrameDecoder,
        checker: &mut Checker,
        publisher: &std::thread::Thread,
        out: &mut PhaseOutcome,
    ) -> Result<(), String> {
        stream
            .set_read_timeout(Some(Duration::from_millis(5)))
            .map_err(|e| e.to_string())?;
        let mut buf = vec![0u8; 256 * 1024];
        let mut frames: Vec<(Decoded, u64, u64)> = Vec::new();
        let mut count = 0u64;
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if self.done.load(Ordering::Acquire) {
                if count >= self.sent.load(Ordering::Acquire) {
                    return Ok(());
                }
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                if Instant::now() >= deadline {
                    return Ok(());
                }
            }
            let n = match stream.read(&mut buf) {
                Ok(0) => return Err("broker closed the subscriber connection".into()),
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) => return Err(e.to_string()),
            };
            out.bytes_in += n as u64;
            // Each frame's decode span runs from the previous frame's
            // completion (or the read's return) to its own completion.
            let mut prev = self.clock.now().as_nanos();
            decoder
                .feed(&buf[..n], &mut |d| {
                    let at = self.clock.now().as_nanos();
                    frames.push((d, prev, at));
                    prev = at;
                })
                .map_err(|e| e.to_string())?;
            for (decoded, decode_start, at) in frames.drain(..) {
                let msg = match decoded {
                    Decoded::Frame(WireMsg::Deliver(msg)) => msg,
                    Decoded::Frame(_) => continue,
                    Decoded::Malformed(_) => {
                        checker.arrive(None, 0, &[], 0);
                        continue;
                    }
                };
                let latency = at.saturating_sub(msg.created_at.as_nanos());
                let topic = topic_index(msg.topic, self.topics);
                checker.arrive(topic, msg.seq.0, &msg.payload, latency);
                out.latencies_ns.push(latency);
                out.arrivals_ns.push(at);
                count += 1;
                if self.traced {
                    let id = msg_id(topic.unwrap_or(usize::MAX >> 24), msg.seq.0);
                    out.spans.push(Span {
                        msg: id,
                        name: "e2e",
                        parent: None,
                        start_ns: msg.created_at.as_nanos(),
                        end_ns: at,
                    });
                    out.spans.push(Span {
                        msg: id,
                        name: "wire.deliver_decode",
                        parent: Some("e2e"),
                        start_ns: decode_start,
                        end_ns: at,
                    });
                }
            }
            // Open the closed loop's window once per read, not per frame.
            self.delivered.store(count, Ordering::Release);
            publisher.unpark();
        }
    }
}
