//! Per-layer measurements of the traced run that need no sockets: sans-IO
//! replays of the workload's stream through the wire codec and the
//! `frame-core` broker facade, and an in-process `frame-rt` broker driven
//! over its channels.
//!
//! Every timed call is recorded as a span whose parent is the message's
//! `replay.*` span, so a layer's cost is the mean self time of its spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use frame_clock::{Clock, MonotonicClock};
use frame_core::{Broker, BrokerConfig, BrokerRole};
use frame_rt::{BrokerMsg, Decoded, FrameDecoder, RtBroker, WireMsg};
use frame_telemetry::{snapshot_roles, RoleKind, Stage, Telemetry};
use frame_types::wire::{EncodedFrame, WireCodec};
use frame_types::{BrokerId, Message, PublisherId, SeqNo, SpanPoint, Time, TraceCtx};

use crate::child::{SUBSCRIBER, WORKERS};
use crate::pacer::{Next, Pacer};
use crate::spans::{mean_self_ns, Span};
use crate::stats::percentile;
use crate::workload::{payload, topic_id, topic_plan, Workload};

/// Seed-stream tag of the replays (distinct from the loopback phases).
const REPLAY_STREAM: u64 = 1 << 20;

/// Span ids of replay messages live above every loopback id.
const REPLAY_ID: u64 = 1 << 63;

/// The replay stream: `count` messages of `workload` from `seed`, created
/// at the nominal rate.
pub fn replay_stream(workload: &Workload, seed: u64, count: usize) -> Vec<Message> {
    let mut next_seq = vec![0u64; workload.topics];
    let period = 1_000_000_000 / workload.nominal_rate;
    topic_plan(seed, REPLAY_STREAM, workload.topics, count)
        .into_iter()
        .enumerate()
        .map(|(k, t)| {
            let topic = t as usize;
            let seq = next_seq[topic];
            next_seq[topic] += 1;
            Message::new(
                topic_id(topic),
                PublisherId(0),
                SeqNo(seq),
                Time::from_millis(1_000)
                    .saturating_add(frame_types::Duration::from_nanos(k as u64 * period)),
                payload(seed, topic, seq, workload.payload_len),
            )
        })
        .collect()
}

/// Times `f` as a span of replay message `k` under `parent`.
fn timed<T>(
    spans: &mut Vec<Span>,
    clock: &Instant,
    k: usize,
    name: &'static str,
    parent: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = clock.elapsed().as_nanos() as u64;
    let out = f();
    spans.push(Span {
        msg: REPLAY_ID | k as u64,
        name,
        parent: Some(parent),
        start_ns: start,
        end_ns: clock.elapsed().as_nanos() as u64,
    });
    out
}

/// Records the root span of replay message `k`.
fn root(spans: &mut Vec<Span>, k: usize, name: &'static str, start_ns: u64, end_ns: u64) {
    spans.push(Span {
        msg: REPLAY_ID | k as u64,
        name,
        parent: None,
        start_ns,
        end_ns,
    });
}

/// Wire-layer costs per message, in ns, plus allocations.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireLedger {
    /// `WireCodec::encode` of a `Publish` frame.
    pub publish_encode_ns: f64,
    /// `FrameDecoder::feed` of that frame.
    pub publish_decode_ns: f64,
    /// `EncodedFrame::encode` of the `Deliver` frame (trace stamped, as
    /// the broker sends it).
    pub deliver_encode_ns: f64,
    /// `FrameDecoder::feed` of that frame.
    pub deliver_decode_ns: f64,
    /// `WireCodec::encode` of a `Replica` frame (the backup bridge).
    pub backup_encode_ns: f64,
    /// Heap allocations per message across the five calls.
    pub allocs_per_msg: f64,
}

/// Allocations charged to this thread's role so far.
fn own_allocs() -> u64 {
    snapshot_roles()
        .into_iter()
        .filter(|r| r.role == RoleKind::Other.name())
        .map(|r| r.allocs)
        .sum()
}

/// Replays `msgs` through the wire codec. Run on a thread registered as
/// [`RoleKind::Other`] so its allocations are counted apart.
pub fn wire_replay(msgs: &[Message], spans: &mut Vec<Span>) -> WireLedger {
    let clock = Instant::now();
    let mut codec = WireCodec::new();
    let mut decoder = FrameDecoder::new();
    // Deliveries carry the broker's trace stamps (its telemetry is on).
    let delivers: Vec<WireMsg> = msgs
        .iter()
        .map(|m| {
            let mut m = m.clone();
            let mut trace = TraceCtx::new();
            for (i, point) in SpanPoint::ALL.into_iter().enumerate() {
                trace.stamp(
                    point,
                    m.created_at
                        .saturating_add(frame_types::Duration::from_micros(10 * i as u64 + 10)),
                );
            }
            m.trace = Some(trace);
            WireMsg::Deliver(m)
        })
        .collect();
    let publishes: Vec<WireMsg> = msgs.iter().cloned().map(WireMsg::Publish).collect();
    let replicas: Vec<WireMsg> = msgs.iter().cloned().map(WireMsg::Replica).collect();
    let first = spans.len();
    spans.reserve(msgs.len() * 6);
    let mut decoded = 0usize;
    let mut sink = |d: Decoded| decoded += usize::from(matches!(d, Decoded::Frame(_)));
    let allocs_before = own_allocs();
    for k in 0..msgs.len() {
        let start = clock.elapsed().as_nanos() as u64;
        let frame = timed(
            spans,
            &clock,
            k,
            "wire.publish_encode",
            "replay.wire",
            || codec.encode(&publishes[k]).expect("encode publish"),
        );
        timed(
            spans,
            &clock,
            k,
            "wire.publish_decode",
            "replay.wire",
            || {
                decoder
                    .feed(frame.as_bytes(), &mut sink)
                    .expect("decode publish")
            },
        );
        let frame = timed(
            spans,
            &clock,
            k,
            "wire.deliver_encode",
            "replay.wire",
            || EncodedFrame::encode(&delivers[k]).expect("encode deliver"),
        );
        timed(
            spans,
            &clock,
            k,
            "wire.deliver_decode",
            "replay.wire",
            || {
                decoder
                    .feed(frame.as_bytes(), &mut sink)
                    .expect("decode deliver")
            },
        );
        timed(
            spans,
            &clock,
            k,
            "wire.backup_encode",
            "replay.wire",
            || codec.encode(&replicas[k]).expect("encode replica"),
        );
        root(
            spans,
            k,
            "replay.wire",
            start,
            clock.elapsed().as_nanos() as u64,
        );
    }
    let allocs = own_allocs() - allocs_before;
    assert_eq!(decoded, 2 * msgs.len(), "every replayed frame decodes");
    let means = mean_self_ns(&spans[first..]);
    WireLedger {
        publish_encode_ns: means["wire.publish_encode"],
        publish_decode_ns: means["wire.publish_decode"],
        deliver_encode_ns: means["wire.deliver_encode"],
        deliver_decode_ns: means["wire.deliver_decode"],
        backup_encode_ns: means["wire.backup_encode"],
        allocs_per_msg: allocs as f64 / msgs.len() as f64,
    }
}

/// Core-layer costs, from the sans-IO `frame-core` broker facade.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreLedger {
    /// `Broker::on_message` per message, ns.
    pub admit_ns: f64,
    /// `Broker::take_job` per job taken, ns.
    pub take_ns: f64,
    /// `Broker::finish_job` per job finished, ns.
    pub finish_ns: f64,
    /// Jobs taken per message (one worker draining after each admit).
    pub taken_per_msg: f64,
    /// Backup `on_replica` + `on_prune` per message, ns.
    pub backup_apply_ns: f64,
    /// `Broker::promote` over the Backup Buffer the replay left, µs.
    pub promote_us: f64,
    /// Telemetry's cost per message: the replay with `Telemetry::new()`
    /// minus the replay with `Telemetry::disabled()`, ns.
    pub trace_ns_per_msg: f64,
}

fn core_broker(workload: &Workload, role: BrokerRole, telemetry: Telemetry) -> Broker {
    let mut broker = Broker::new(
        BrokerId(u32::from(role == BrokerRole::Backup)),
        role,
        BrokerConfig::frame(),
    );
    for admitted in workload.admitted().expect("workload topics admit") {
        broker
            .register_topic(admitted, vec![SUBSCRIBER])
            .expect("distinct topics");
    }
    broker.set_telemetry(telemetry);
    broker
}

/// The instant a replayed message is handled: 100 µs after creation.
fn handled_at(m: &Message) -> Time {
    m.created_at
        .saturating_add(frame_types::Duration::from_micros(100))
}

/// One untimed pass of the Primary path (admit, then take and finish until
/// the queue is empty); returns its wall time in ns.
fn core_pass(workload: &Workload, msgs: &[Message], telemetry: Telemetry) -> u64 {
    let mut broker = core_broker(workload, BrokerRole::Primary, telemetry);
    let started = Instant::now();
    for m in msgs {
        let now = handled_at(m);
        broker.on_message(m.clone(), now).expect("registered topic");
        while let Some(active) = broker.take_job(now) {
            std::hint::black_box(broker.finish_job(&active, now));
        }
    }
    started.elapsed().as_nanos() as u64
}

/// Replays `msgs` through the `frame-core` facade: a Primary that admits
/// each message and drains its jobs like one worker, and a Backup that
/// applies a Replica and a Prune for each message and is promoted at the
/// end.
pub fn core_replay(workload: &Workload, msgs: &[Message], spans: &mut Vec<Span>) -> CoreLedger {
    let clock = Instant::now();
    let mut primary = core_broker(workload, BrokerRole::Primary, Telemetry::disabled());
    let mut backup = core_broker(workload, BrokerRole::Backup, Telemetry::disabled());
    let first = spans.len();
    spans.reserve(msgs.len() * 6);
    let mut taken = 0u64;
    for (k, m) in msgs.iter().enumerate() {
        let now = handled_at(m);
        let start = clock.elapsed().as_nanos() as u64;
        timed(spans, &clock, k, "core.admit", "replay.core", || {
            primary
                .on_message(m.clone(), now)
                .expect("registered topic")
        });
        loop {
            let t0 = clock.elapsed().as_nanos() as u64;
            let Some(active) = primary.take_job(now) else {
                break;
            };
            spans.push(Span {
                msg: REPLAY_ID | k as u64,
                name: "core.take",
                parent: Some("replay.core"),
                start_ns: t0,
                end_ns: clock.elapsed().as_nanos() as u64,
            });
            taken += 1;
            let effects = timed(spans, &clock, k, "core.finish", "replay.core", || {
                primary.finish_job(&active, now)
            });
            std::hint::black_box(effects);
        }
        let copy = m.clone();
        timed(spans, &clock, k, "core.backup_apply", "replay.core", || {
            backup.on_replica(copy, now).expect("registered topic");
            backup.on_prune(m.key(), now).expect("registered topic");
        });
        root(
            spans,
            k,
            "replay.core",
            start,
            clock.elapsed().as_nanos() as u64,
        );
    }
    let now = msgs.last().map(handled_at).unwrap_or(Time::ZERO);
    let promote_start = Instant::now();
    let recovered = backup.promote(now).expect("a Backup promotes");
    let promote_us = promote_start.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(recovered);
    let means = mean_self_ns(&spans[first..]);

    // Telemetry cost: alternate disabled and enabled passes (no spans) and
    // keep each side's fastest, so warm-up and noise favour neither.
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..2 {
        off = off.min(core_pass(workload, msgs, Telemetry::disabled()));
        on = on.min(core_pass(workload, msgs, Telemetry::new()));
    }
    CoreLedger {
        admit_ns: means["core.admit"],
        take_ns: means.get("core.take").copied().unwrap_or(0.0),
        finish_ns: means.get("core.finish").copied().unwrap_or(0.0),
        taken_per_msg: taken as f64 / msgs.len() as f64,
        backup_apply_ns: means["core.backup_apply"],
        promote_us,
        trace_ns_per_msg: (on as f64 - off as f64) / msgs.len() as f64,
    }
}

/// The in-process `frame-rt` run: channels only, no sockets.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtLedger {
    /// Messages sent.
    pub sent: u64,
    /// Messages received by the in-process subscriber.
    pub received: u64,
    /// Send → in-process subscriber, from the intended send time: p50, µs.
    pub hop_p50_us: f64,
    /// Same, p99, µs.
    pub hop_p99_us: f64,
    /// `Stage::QueueWait` p50 / p99, µs.
    pub queue_wait_p50_us: f64,
    /// See `queue_wait_p50_us`.
    pub queue_wait_p99_us: f64,
    /// `Stage::ProxyIngress` p50, µs.
    pub proxy_ingress_p50_us: f64,
    /// `Stage::DispatchExec` p50, µs.
    pub dispatch_exec_p50_us: f64,
    /// `Stage::ReplicateExec` p50, µs (0 without replication).
    pub replicate_exec_p50_us: f64,
    /// Deepest the job queue got.
    pub queue_high_watermark: f64,
    /// Contended shard-lock acquisitions per message.
    pub shard_contention_per_msg: f64,
    /// Heap allocations on hot-path threads per message.
    pub hot_allocs_per_msg: f64,
}

fn hot_allocs() -> u64 {
    snapshot_roles()
        .into_iter()
        .filter(|r| r.hot_path)
        .map(|r| r.allocs)
        .sum()
}

fn us(d: frame_types::Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Drives an in-process broker (plus an in-process Backup when the
/// workload replicates) at the nominal rate for `count` messages.
pub fn rt_run(workload: &Workload, msgs: &[Message]) -> Result<RtLedger, String> {
    let clock = Arc::new(MonotonicClock::new());
    let telemetry = Telemetry::new();
    let spawn = |role, telemetry| {
        let (broker, threads) = RtBroker::spawn_with_telemetry(
            BrokerId(u32::from(role == BrokerRole::Backup)),
            role,
            BrokerConfig::frame(),
            WORKERS,
            clock.clone(),
            telemetry,
        );
        for admitted in workload.admitted().expect("workload topics admit") {
            broker
                .register_topic(admitted, vec![SUBSCRIBER])
                .expect("distinct topics");
        }
        (broker, threads)
    };
    // Same core layout as the loopback run: broker threads (which inherit
    // the mask they are spawned under) on the broker's CPU, the sending and
    // receiving threads on the generator's.
    let previous = crate::sys::affinity();
    crate::sys::set_affinity(1 << crate::sys::broker_cpu());
    let (broker, threads) = spawn(BrokerRole::Primary, telemetry.clone());
    let backup = workload
        .backup
        .then(|| spawn(BrokerRole::Backup, Telemetry::disabled()));
    crate::sys::set_affinity(1 << crate::sys::generator_cpu());
    if let Some((b, _)) = &backup {
        broker.connect_backup(b.sender());
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    broker.connect_subscriber(SUBSCRIBER, tx);
    let allocs_before = hot_allocs();
    let sender = broker.sender();
    let count = msgs.len() as u64;
    let start_ns = clock.now().as_nanos();
    let mut hops = Vec::with_capacity(msgs.len());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut pacer = Pacer::new(start_ns, workload.nominal_rate, count);
            loop {
                let now = clock.now().as_nanos();
                match pacer.poll(now) {
                    Next::Send {
                        index, intended_ns, ..
                    } => {
                        let mut m = msgs[index as usize].clone();
                        m.created_at = Time::from_nanos(intended_ns);
                        if sender.send(BrokerMsg::Publish(m)).is_err() {
                            return;
                        }
                    }
                    Next::Wait { until_ns } => {
                        std::thread::sleep(Duration::from_nanos(until_ns - now))
                    }
                    Next::Done => return,
                }
            }
        });
        let end = Instant::now()
            + Duration::from_nanos(count * 1_000_000_000 / workload.nominal_rate)
            + Duration::from_secs(5);
        while (hops.len() as u64) < count && Instant::now() < end {
            if let Ok(d) = rx.recv_timeout(Duration::from_millis(10)) {
                hops.push(
                    clock
                        .now()
                        .saturating_since(d.message.created_at)
                        .as_nanos(),
                );
            }
        }
    });
    if let Some(mask) = previous {
        crate::sys::set_affinity(mask);
    }
    let allocs = hot_allocs() - allocs_before;
    let snap = telemetry.snapshot();
    let stage = |s: Stage, q: f64| snap.stage(s).map(|h| us(h.quantile(q))).unwrap_or(0.0);
    hops.sort_unstable();
    let ledger = RtLedger {
        sent: count,
        received: hops.len() as u64,
        hop_p50_us: percentile(&hops, 50.0) as f64 / 1e3,
        hop_p99_us: percentile(&hops, 99.0) as f64 / 1e3,
        queue_wait_p50_us: stage(Stage::QueueWait, 0.5),
        queue_wait_p99_us: stage(Stage::QueueWait, 0.99),
        proxy_ingress_p50_us: stage(Stage::ProxyIngress, 0.5),
        dispatch_exec_p50_us: stage(Stage::DispatchExec, 0.5),
        replicate_exec_p50_us: stage(Stage::ReplicateExec, 0.5),
        queue_high_watermark: broker.stats().queue_high_watermark as f64,
        shard_contention_per_msg: telemetry.shard_contention() as f64 / count as f64,
        hot_allocs_per_msg: allocs as f64 / count as f64,
    };
    broker.shutdown();
    threads.join();
    if let Some((b, t)) = backup {
        b.shutdown();
        t.join();
    }
    if ledger.received != count {
        return Err(format!(
            "in-process run delivered {} of {count} messages",
            ledger.received
        ));
    }
    Ok(ledger)
}
