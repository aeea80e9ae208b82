//! `loopbench`: the open-loop loopback benchmark of the FRAME broker.
//!
//! ```text
//! loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: a `frame-rt`
//! broker runs in a child process (plus a Backup child where the workload
//! replicates), this process drives a seed-generated stream at it over
//! loopback TCP, and every delivery is checked. With `--trace 1` it
//! produces the per-layer ledger instead. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A run record (seed, host, rates, every figure behind the metrics) goes
//! to standard error and to `loopbench/out/`. See `loopbench/README.md`.

mod checker;
mod child;
mod layers;
mod loopback;
mod pacer;
mod spans;
mod stats;
mod sys;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use frame_telemetry::{DecisionKind, TelemetrySnapshot};

use crate::checker::Verdict;
use crate::loopback::{Load, Session};
use crate::stats::{
    mean, median, percentile, supported_tail, window_percentiles, window_rates, WINDOW,
};
use crate::workload::Workload;

/// Open-loop warm-up before anything is timed (pools fill, pages fault
/// in, connections settle). Its deliveries are still checked.
const WARMUP: Duration = Duration::from_millis(300);

/// The untraced run sets up this many fresh broker sessions, one after
/// the other, and runs nominal → high → saturation in each. Each metric
/// pools or averages the sessions' figures, so a spell of noise from
/// outside the benchmark spoils one session, not the run, and set-up is
/// measured as often as it is paid. `setup_s` is the median of the
/// sessions' set-up times.
const SESSIONS: usize = 10;

/// Shares of a session's measured time (`--seconds / SESSIONS`) spent per
/// phase.
const NOMINAL_SHARE: f64 = 0.45;
const HIGH_SHARE: f64 = 0.3;
const SATURATION_SHARE: f64 = 0.25;

/// Window of the saturation phase's delivered-rate samples.
const SATURATION_WINDOW: Duration = Duration::from_millis(100);

/// Shares of `--seconds` in the traced run: each nominal half (untraced,
/// then traced), the closing saturation phase and the in-process run.
const TRACED_HALF_SHARE: f64 = 0.3;
const TRACED_SATURATION_SHARE: f64 = 0.1;
const RT_SHARE: f64 = 0.15;

/// Messages replayed through the sans-IO layers (at most).
const REPLAY_MAX: usize = 10_000;

/// Where run records and span files go (relative to the checkout).
const OUT_DIR: &str = "loopbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 60.0)
                        .ok_or("--seconds needs a number in (0, 60]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A run's result line plus its record.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    record: String,
}

impl Outcome {
    /// A metric without windows (too few samples) reads NaN, which makes
    /// the run incorrect rather than silently reporting nothing.
    fn new(verdict: &Verdict, metrics: Vec<Metric>, record: String) -> Outcome {
        Outcome {
            correct: verdict.correct() && metrics.iter().all(|m| m.value.is_finite()),
            attempted: verdict.attempted,
            failed: verdict.failed(),
            metrics,
            record,
        }
    }
}

fn count(secs: f64, rate: u64) -> u64 {
    ((secs * rate as f64) as u64).max(1)
}

fn open(secs: f64, rate: u64) -> Load {
    Load::Open {
        rate,
        count: count(secs, rate),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sorted copy of a list of samples.
fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// The median over [`WINDOW`]-delivery windows of each window's
/// percentile `p`, in µs (NaN without a whole window).
fn windowed_us(latencies_ns: &[u64], p: f64) -> f64 {
    median(&mut window_percentiles(latencies_ns, WINDOW, p)) / 1e3
}

/// The highest percentile a sample supports, for the run record.
fn tail_note(samples: &[u64]) -> String {
    match supported_tail(&sorted(samples)) {
        Some(t) => format!(
            "{{\"percentile\": {}, \"value_us\": {:.3}, \"samples\": {}}}",
            t.percentile,
            us(t.value),
            t.samples
        ),
        None => format!("{{\"percentile\": null, \"samples\": {}}}", samples.len()),
    }
}

/// Windowed p50/p99 and the pooled supported tail of a latency list.
fn latency_note(latencies_ns: &[u64]) -> String {
    format!(
        "{{\"windows\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"pooled_tail\": {}}}",
        latencies_ns.len() / WINDOW,
        windowed_us(latencies_ns, 50.0),
        windowed_us(latencies_ns, 99.0),
        tail_note(latencies_ns)
    )
}

fn verdict_note(v: &Verdict) -> String {
    format!(
        "{{\"attempted\": {}, \"delivered\": {}, \"lost\": {}, \"duplicated\": {}, \
         \"corrupted\": {}, \"late\": {}, \"reordered\": {}, \"deadline_miss_ratio\": {}}}",
        v.attempted,
        v.delivered,
        v.lost,
        v.duplicated,
        v.corrupted,
        v.late,
        v.reordered,
        v.miss_ratio()
    )
}

/// The host and configuration stamp every record starts with.
fn stamp(a: &Args) -> String {
    let w = &a.workload;
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"kernel\": \"{}\", \"git_rev\": \"{}\"}}, \
         \"config\": {{\"topics\": {}, \"payload_bytes\": {}, \"nominal_rate\": {}, \
         \"high_rate\": {}, \"window\": {}, \"workers\": {}, \"reactor_loops\": {}, \
         \"backup\": {}, \"transport\": \"loopback tcp\", \"broker_cpu\": {}, \
         \"generator_cpu\": {}}}",
        w.name,
        a.seed,
        a.seconds,
        a.trace,
        sys::nproc(),
        sys::kernel(),
        sys::git_rev(),
        w.topics,
        w.payload_len,
        w.nominal_rate,
        w.high_rate,
        w.window,
        child::WORKERS,
        child::REACTOR_LOOPS,
        w.backup,
        sys::broker_cpu(),
        sys::generator_cpu()
    )
}

/// Delivery frames the reactor dropped on full write queues.
fn reactor_drops(s: &TelemetrySnapshot) -> u64 {
    s.reactor_loops.iter().map(|l| l.write_queue_drops).sum()
}

/// The untraced run: end-to-end metrics.
fn run_untraced(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let session_s = a.seconds / SESSIONS as f64;
    let mut setups = Vec::with_capacity(SESSIONS);
    let (mut p50s, mut p50s_high) = (Vec::new(), Vec::new());
    let (mut rates, mut rss, mut sat_util) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nominal, mut high, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_us, mut nominal_sent) = (0.0, 0u64);
    let mut verdict = Verdict::default();
    for _ in 0..SESSIONS {
        let (mut s, setup_s) = Session::setup(w, a.seed)?;
        setups.push(setup_s);
        s.run_phase(open(WARMUP.as_secs_f64(), w.nominal_rate), false)?;
        let cpu_before = s.broker_cpu_us()?;
        let n = s.run_phase(open(session_s * NOMINAL_SHARE, w.nominal_rate), false)?;
        cpu_us += s.broker_cpu_us()? - cpu_before;
        nominal_sent += n.sent;
        let h = s.run_phase(open(session_s * HIGH_SHARE, w.high_rate), false)?;
        // CPU shares of the broker and of this generator during saturation:
        // the record shows which side was the bottleneck.
        let (broker_before, gen_before) =
            (s.broker_cpu_us()?, sys::process_cpu_us(std::process::id())?);
        let sat = s.run_phase(
            Load::Closed {
                window: w.window,
                duration: Duration::from_secs_f64(session_s * SATURATION_SHARE),
            },
            false,
        )?;
        let sat_us = (sat.end_ns - sat.start_ns) as f64 / 1e3;
        sat_util.push([
            (s.broker_cpu_us()? - broker_before) / sat_us,
            (sys::process_cpu_us(std::process::id())? - gen_before) / sat_us,
        ]);
        rss.push(s.broker_rss_mb()?);
        verdict.merge(&s.verdict());
        s.close();
        p50s.push(us(percentile(&sorted(&n.latencies_ns), 50.0)));
        p50s_high.push(us(percentile(&sorted(&h.latencies_ns), 50.0)));
        rates.push(median(&mut window_rates(
            &sat.arrivals_ns,
            sat.start_ns,
            sat.end_ns,
            SATURATION_WINDOW.as_nanos() as u64,
        )));
        nominal.extend_from_slice(&n.latencies_ns);
        late.extend_from_slice(&n.late_ns);
        high.extend_from_slice(&h.latencies_ns);
    }

    let record = format!(
        "{{{}, \"sessions\": {}, \"setups_s\": {:?}, \"p50_us_by_session\": {:?}, \
         \"p50_us_high_by_session\": {:?}, \"throughput_by_session\": {:?}, \
         \"saturation_cpu_share_broker_generator\": {:?}, \"rss_mb_by_session\": {:?}, \
         \"nominal\": {}, \"high\": {}, \"gen_late_p99_us\": {:.3}, \"verdict\": {}}}",
        stamp(a),
        SESSIONS,
        setups,
        p50s,
        p50s_high,
        rates,
        sat_util,
        rss,
        latency_note(&nominal),
        latency_note(&high),
        us(percentile(&sorted(&late), 99.0)),
        verdict_note(&verdict)
    );
    let metrics = vec![
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("throughput_msgs_s", mean(&rates), "1/s"),
        Metric::new("p50_us", mean(&p50s), "us"),
        Metric::new("p99_us", windowed_us(&nominal, 99.0), "us"),
        Metric::new("p50_us_high", mean(&p50s_high), "us"),
        Metric::new("p99_us_high", windowed_us(&high, 99.0), "us"),
        // Summed over the sessions: one session's CPU is a few clock ticks.
        Metric::new(
            "broker_cpu_us_per_msg",
            cpu_us / nominal_sent.max(1) as f64,
            "us",
        ),
        Metric::new("broker_rss_mb", median(&mut rss), "MiB"),
    ];
    Ok(Outcome::new(&verdict, metrics, record))
}

/// Counter differences between two `Stats` replies of the Primary.
struct StatsDelta {
    admits: f64,
    wakeups: f64,
    read_syscalls: f64,
    write_syscalls: f64,
    jobs: f64,
    replication_jobs: f64,
    replication_cancelled: f64,
}

fn stats_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> StatsDelta {
    let wakeups = |s: &TelemetrySnapshot| s.reactor_loops.iter().map(|l| l.wakeups).sum::<u64>();
    let syscalls = |s: &TelemetrySnapshot, write: bool| {
        s.roles
            .iter()
            .filter(|r| r.role.starts_with("reactor"))
            .map(|r| {
                if write {
                    r.write_syscalls
                } else {
                    r.read_syscalls
                }
            })
            .sum::<u64>()
    };
    let d = |f: &dyn Fn(&TelemetrySnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let kind = |k: DecisionKind| move |s: &TelemetrySnapshot| s.decision_count(k);
    let replicated = d(&kind(DecisionKind::Replicate));
    let cancelled = d(&kind(DecisionKind::Cancel)) + d(&kind(DecisionKind::Abort));
    StatsDelta {
        admits: d(&|s: &TelemetrySnapshot| s.admits),
        wakeups: d(&wakeups),
        read_syscalls: d(&|s: &TelemetrySnapshot| syscalls(s, false)),
        write_syscalls: d(&|s: &TelemetrySnapshot| syscalls(s, true)),
        jobs: d(&kind(DecisionKind::Dispatch)) + replicated + cancelled,
        replication_jobs: replicated + cancelled,
        replication_cancelled: cancelled,
    }
}

/// The traced run: the per-layer ledger.
fn run_traced(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let half = a.seconds * TRACED_HALF_SHARE;

    // Loopback: an untraced nominal half (its latency against the traced
    // half's is the tracing overhead), then the traced nominal half
    // between two `Stats` replies.
    let (mut s, _) = Session::setup(w, a.seed)?;
    s.run_phase(open(WARMUP.as_secs_f64(), w.nominal_rate), false)?;
    let plain = s.run_phase(open(half, w.nominal_rate), false)?;
    let stats_before = child::fetch_stats(s.primary().addr)?;
    let cpu_before = s.broker_cpu_us()?;
    let traced = s.run_phase(open(half, w.nominal_rate), true)?;
    let cpu_us = s.broker_cpu_us()? - cpu_before;
    let stats_after = child::fetch_stats(s.primary().addr)?;
    // The per-topic order race needs both workers busy to show: end with a
    // short saturation phase, so `rt.reorder_ratio` has load behind it.
    s.run_phase(
        Load::Closed {
            window: w.window,
            duration: Duration::from_secs_f64(a.seconds * TRACED_SATURATION_SHARE),
        },
        false,
    )?;
    let verdict = s.verdict();
    s.close();
    let delta = stats_delta(&stats_before, &stats_after);
    let broker_cpu_us_per_msg = cpu_us / traced.sent.max(1) as f64;
    let mut spans = traced.spans;

    // No sockets: the in-process broker, then the sans-IO replays.
    let rt_stream = layers::replay_stream(
        &w,
        a.seed ^ 1,
        count(a.seconds * RT_SHARE, w.nominal_rate) as usize,
    );
    let rt = layers::rt_run(&w, &rt_stream)?;
    let replay_count = (count(half, w.nominal_rate) as usize).min(REPLAY_MAX);
    let stream = layers::replay_stream(&w, a.seed, replay_count);
    let (wire, core, replay_spans) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                // Its own role, so the wire replay's allocations count apart.
                frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Other, 0);
                sys::set_affinity(1 << sys::broker_cpu());
                let mut spans = Vec::new();
                let wire = layers::wire_replay(&stream, &mut spans);
                let core = layers::core_replay(&w, &stream, &mut spans);
                (wire, core, spans)
            })
            .join()
    })
    .map_err(|_| "replay thread panicked")?;
    spans.extend(replay_spans);

    // The ledger: what the broker-side layer calls of one message cost,
    // against the CPU the broker processes burned per message. Replicas
    // actually sent also cost an encode, a decode and a Backup apply.
    let replica_share = 1.0 - delta.replication_cancelled / delta.replication_jobs.max(1.0);
    let replica_share = if delta.replication_jobs > 0.0 {
        replica_share
    } else {
        0.0
    };
    let layer_ns = wire.publish_decode_ns
        + core.admit_ns
        + core.taken_per_msg * (core.take_ns + core.finish_ns)
        + wire.deliver_encode_ns
        + core.trace_ns_per_msg
        + replica_share * (wire.backup_encode_ns + wire.publish_decode_ns + core.backup_apply_ns);
    let per_msg = |x: f64| x / delta.admits.max(1.0);
    let late = sorted(&plain.late_ns);
    let plain_sorted = sorted(&plain.latencies_ns);
    let traced_p50 = us(percentile(&sorted(&traced.latencies_ns), 50.0));
    let metrics = vec![
        Metric::new("wire.publish_encode_ns", wire.publish_encode_ns, "ns"),
        Metric::new("wire.publish_decode_ns", wire.publish_decode_ns, "ns"),
        Metric::new("wire.deliver_encode_ns", wire.deliver_encode_ns, "ns"),
        Metric::new("wire.deliver_decode_ns", wire.deliver_decode_ns, "ns"),
        Metric::new("wire.backup_encode_ns", wire.backup_encode_ns, "ns"),
        Metric::new(
            "wire.frame_bytes",
            traced.bytes_in as f64 / traced.latencies_ns.len().max(1) as f64,
            "bytes",
        ),
        Metric::new("wire.allocs_per_msg", wire.allocs_per_msg, "count"),
        Metric::new("core.admit_ns", core.admit_ns, "ns"),
        Metric::new("core.take_ns", core.take_ns, "ns"),
        Metric::new("core.finish_ns", core.finish_ns, "ns"),
        Metric::new("core.jobs_per_msg", per_msg(delta.jobs), "count"),
        Metric::new(
            "core.replication_cancel_ratio",
            delta.replication_cancelled / delta.replication_jobs.max(1.0),
            "ratio",
        ),
        Metric::new("core.backup_apply_ns", core.backup_apply_ns, "ns"),
        Metric::new("core.promote_us", core.promote_us, "us"),
        Metric::new("rt.hop_p50_us", rt.hop_p50_us, "us"),
        Metric::new("rt.hop_p99_us", rt.hop_p99_us, "us"),
        Metric::new("rt.queue_wait_p50_us", rt.queue_wait_p50_us, "us"),
        Metric::new("rt.queue_wait_p99_us", rt.queue_wait_p99_us, "us"),
        Metric::new("rt.proxy_ingress_p50_us", rt.proxy_ingress_p50_us, "us"),
        Metric::new("rt.dispatch_exec_p50_us", rt.dispatch_exec_p50_us, "us"),
        Metric::new("rt.replicate_exec_p50_us", rt.replicate_exec_p50_us, "us"),
        Metric::new("rt.queue_high_watermark", rt.queue_high_watermark, "count"),
        Metric::new(
            "rt.shard_contention_per_msg",
            rt.shard_contention_per_msg,
            "count",
        ),
        Metric::new("rt.reorder_ratio", verdict.reorder_ratio(), "ratio"),
        Metric::new("rt.hot_allocs_per_msg", rt.hot_allocs_per_msg, "count"),
        Metric::new("reactor.wakeups_per_msg", per_msg(delta.wakeups), "count"),
        Metric::new(
            "reactor.read_syscalls_per_msg",
            per_msg(delta.read_syscalls),
            "count",
        ),
        Metric::new(
            "reactor.write_syscalls_per_msg",
            per_msg(delta.write_syscalls),
            "count",
        ),
        Metric::new(
            "reactor.write_queue_drops",
            reactor_drops(&stats_after) as f64,
            "count",
        ),
        Metric::new("telemetry.trace_ns_per_msg", core.trace_ns_per_msg, "ns"),
        Metric::new(
            "ledger.layer_cpu_share",
            layer_ns / (broker_cpu_us_per_msg * 1e3),
            "ratio",
        ),
        Metric::new("ledger.broker_cpu_us_per_msg", broker_cpu_us_per_msg, "us"),
        Metric::new("gen.late_p99_us", us(percentile(&late, 99.0)), "us"),
        Metric::new("gen.late_max_us", us(percentile(&late, 100.0)), "us"),
        Metric::new("e2e.p999_us", us(percentile(&plain_sorted, 99.9)), "us"),
        Metric::new("e2e.deadline_miss_ratio", verdict.miss_ratio(), "ratio"),
        Metric::new(
            "trace.p50_overhead_us",
            traced_p50 - us(percentile(&plain_sorted, 50.0)),
            "us",
        ),
    ];

    let span_file = Path::new(OUT_DIR).join(format!("{}.spans.csv", w.name));
    spans::write_csv(&span_file, &spans).map_err(|e| format!("write spans: {e}"))?;
    let record = format!(
        "{{{}, \"traced_msgs\": {}, \"nominal\": {}, \
         \"rt\": {{\"sent\": {}, \"received\": {}}}, \"replay_msgs\": {}, \
         \"replica_share\": {:.4}, \"layer_ns_per_msg\": {:.1}, \"spans\": {}, \
         \"span_file\": \"{}\", \"verdict\": {}}}",
        stamp(a),
        traced.sent,
        latency_note(&plain.latencies_ns),
        rt.sent,
        rt.received,
        replay_count,
        replica_share,
        layer_ns,
        spans.len(),
        span_file.display(),
        verdict_note(&verdict)
    );
    Ok(Outcome::new(&verdict, metrics, record))
}

fn result_line(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Read the allowed CPUs before anything pins a thread.
    sys::nproc();
    if args.first().map(String::as_str) == Some("broker") {
        if let Err(e) = child::broker_main(&args[1..]) {
            eprintln!("loopbench broker: {e}");
            std::process::exit(2);
        }
        return;
    }
    let outcome = parse_args(&args).and_then(|a| {
        let o = if a.trace {
            run_traced(&a)
        } else {
            run_untraced(&a)
        }?;
        let file = Path::new(OUT_DIR).join(format!(
            "{}.trace{}.json",
            a.workload.name,
            u8::from(a.trace)
        ));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&file, &o.record))
            .map_err(|e| format!("write run record: {e}"))?;
        Ok(o)
    });
    match outcome {
        Ok(o) => {
            eprintln!("{}", o.record);
            println!("{}", result_line(&o));
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(1);
        }
    }
}
