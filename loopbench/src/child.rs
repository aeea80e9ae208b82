//! The broker process under test, and the handle the generator holds on it.
//!
//! The child is this same executable started with `broker`: it builds a
//! `frame-rt` broker from the public calls `frame-cli broker` makes
//! (`RtBroker::spawn`, `admit` + `register_topic`, `connect_backup_over_tcp`,
//! a `ReactorServer`), prints `READY <port>` and serves until its stdin
//! closes. Tying its lifetime to the pipe means a generator that dies takes
//! its brokers with it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frame_clock::{Clock, MonotonicClock};
use frame_core::{BrokerConfig, BrokerRole};
use frame_rt::{
    connect_backup_over_tcp, Decoded, FrameDecoder, ReactorConfig, ReactorServer, RtBroker, WireMsg,
};
use frame_telemetry::TelemetrySnapshot;
use frame_types::wire::WireCodec;
use frame_types::{BrokerId, SubscriberId};

use crate::workload::Workload;

/// Delivery workers per broker.
pub const WORKERS: usize = 2;

/// Reactor event loops per broker. Pinned (rather than one per core) so
/// the process layout does not depend on the host.
pub const REACTOR_LOOPS: usize = 2;

/// The one subscriber every topic delivers to.
pub const SUBSCRIBER: SubscriberId = SubscriberId(0);

/// How long a child may take to report `READY`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Runs a broker process: `broker <workload> <primary|backup> [backup-addr]`.
///
/// # Errors
///
/// Bad arguments, admission or bind failures.
pub fn broker_main(args: &[String]) -> Result<(), String> {
    let [workload, role, rest @ ..] = args else {
        return Err("usage: loopbench broker <workload> <primary|backup> [backup-addr]".into());
    };
    let workload = Workload::by_name(workload).ok_or("unknown workload")?;
    let role = match role.as_str() {
        "primary" => BrokerRole::Primary,
        "backup" => BrokerRole::Backup,
        other => return Err(format!("unknown role `{other}`")),
    };
    let backup_addr: Option<SocketAddr> = match rest {
        [] => None,
        [addr] => Some(addr.parse().map_err(|e| format!("backup addr: {e}"))?),
        _ => return Err("too many arguments".into()),
    };
    // Every broker thread inherits the pin (see `sys::broker_cpu`).
    crate::sys::set_affinity(1 << crate::sys::broker_cpu());
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let id = BrokerId(u32::from(role == BrokerRole::Backup));
    let (broker, threads) = RtBroker::spawn(id, role, BrokerConfig::frame(), WORKERS, clock);
    for admitted in workload.admitted()? {
        broker
            .register_topic(admitted, vec![SUBSCRIBER])
            .map_err(|e| e.to_string())?;
    }
    let bridge = backup_addr
        .map(|addr| connect_backup_over_tcp(&broker, addr))
        .transpose()
        .map_err(|e| e.to_string())?;
    let server = ReactorServer::bind_with(
        "127.0.0.1:0",
        broker.clone(),
        ReactorConfig {
            loops: REACTOR_LOOPS,
            ..ReactorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "READY {}", server.local_addr().port()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    // Serve until the generator closes our stdin (or exits).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    broker.shutdown();
    if let Some(bridge) = bridge {
        bridge.join();
    }
    threads.join();
    Ok(())
}

/// A running broker child.
pub struct BrokerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where its reactor listens.
    pub addr: SocketAddr,
}

impl BrokerProc {
    /// Starts a broker child and waits for its `READY` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, a child that exits or stays silent.
    pub fn spawn(
        workload: &Workload,
        role: &str,
        backup: Option<SocketAddr>,
    ) -> Result<BrokerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("broker").arg(workload.name).arg(role);
        if let Some(addr) = backup {
            cmd.arg(addr.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn broker: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("no child stdout")?;
        // Read the READY line on a helper thread so a silent child cannot
        // hang the generator.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let got = BufReader::new(stdout).read_line(&mut line).map(|_| line);
            let _ = tx.send(got);
        });
        let line = rx.recv_timeout(READY_TIMEOUT);
        let mut proc = BrokerProc {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let port: u16 = match line {
            Ok(Ok(line)) => line
                .trim()
                .strip_prefix("READY ")
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("broker child said {line:?}"))?,
            Ok(Err(e)) => return Err(format!("broker child stdout: {e}")),
            Err(_) => {
                proc.kill();
                return Err("broker child did not become ready".into());
            }
        };
        let _ = reader.join();
        proc.addr.set_port(port);
        Ok(proc)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the child to exit (closes its stdin) and waits for it, killing
    /// it after a grace period.
    pub fn stop(mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for BrokerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stdin.take();
            self.kill();
        }
    }
}

/// Reads frames from `stream` until `want` accepts one.
///
/// # Errors
///
/// Socket errors, a closed or corrupt stream, or a read timeout.
pub fn read_until<T>(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    mut want: impl FnMut(WireMsg) -> Option<T>,
) -> Result<T, String> {
    let mut buf = vec![0u8; 64 * 1024];
    let mut found = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".into());
        }
        decoder
            .feed(&buf[..n], &mut |d| {
                if let (None, Decoded::Frame(msg)) = (&found, d) {
                    found = want(msg);
                }
            })
            .map_err(|e| e.to_string())?;
        if let Some(t) = found.take() {
            return Ok(t);
        }
    }
}

/// Fetches a broker's telemetry snapshot (its `Stats` reply) over a fresh
/// control connection.
///
/// # Errors
///
/// Connection, protocol or parse failures.
pub fn fetch_stats(addr: SocketAddr) -> Result<TelemetrySnapshot, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    WireCodec::new()
        .encode_into(&mut stream, &WireMsg::Stats)
        .map_err(|e| e.to_string())?;
    let json = read_until(&mut stream, &mut FrameDecoder::new(), |m| match m {
        WireMsg::StatsJson(json) => Some(json),
        _ => None,
    })?;
    frame_telemetry::from_json(&json).map_err(|e| e.to_string())
}
