//! The live workload: a server child process under open-loop load from
//! this one.
//!
//! The server runs in a child process (`serve-child`) so its CPU, thread
//! and memory counters in `/proc` hold the server alone. This process is
//! the client: two connections, at most two threads, speaking the v2 wire
//! protocol through the public `protocol` items `arlo loadgen` also uses.

use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::spans::{Spans, ROOT};
use crate::stats::{self, ratio};
use arlo_core::engine::{ArloEngine, EngineConfig, Placement};
use arlo_core::system::SystemSpec;
use arlo_runtime::batching::{BatchPolicy, BatchSpec, Coalescer};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_serve::protocol::{client_handshake, Frame, FrameReader, WireVersion, CONN_ERROR_ID};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_serve::tenants::{SloClass, TenantSpec};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// BERT-base SLO (the paper's).
const SLO_MS: f64 = 150.0;
/// GPUs of the modeled fleet.
const GPUS: u32 = 8;
/// Client connections.
const CONNS: usize = 2;
/// Mean offered rate of the open loop, requests per wall second. The
/// server and client then use about half of two CPUs. At 20k they used
/// three quarters, and a host that stole 8% of the CPU time raised the
/// median latency by a third; at 40k they ran near saturation.
const RATE: f64 = 10_000.0;
/// Virtual-time speed-up: 1 ms of wall delay costs 20 virtual ms. With the
/// offered rate this makes 500 virtual requests per second on 8 GPUs. At
/// 40 the 150 ms SLO left about 2 wall ms of slack over the modeled
/// execution, and 4–9% steal cut SLO attainment from 0.99 to 0.95–0.98.
const SCALE: u64 = 20;
/// Executor batching: at most 4 per execution, 2 virtual ms to fill.
const BATCH: BatchPolicy = BatchPolicy {
    spec: BatchSpec {
        max_batch: 4,
        marginal_cost: 0.6,
    },
    max_wait_ns: 2_000_000,
};
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Idle poll interval of the open-loop receiver.
const POLL: Duration = Duration::from_micros(20);
/// The open loop fails a run whose generator sent its p99 request later
/// than this after its due time: the client, not the server, set the pace.
/// A generator that falls behind is late by ever more; hypervisor steal on
/// this 2-CPU host made a keeping-up generator's p99 reach 6 ms.
const LATE_BOUND_US: f64 = 50_000.0;
/// How long after the last due time unanswered requests count as lost.
const LOST_AFTER: Duration = Duration::from_secs(30);
/// The percentile the live tail is read at.
const TAIL_PCT: f64 = 99.0;
/// Length of the segments the tail latency is read over.
const SEGMENT_NS: u64 = NANOS_PER_SEC / 10;
/// Requests the traced run replays through the public functions.
const REPLAY_MAX: usize = 100_000;
/// Every request is split 3:1 between these tenants.
const TENANTS: [(&str, SloClass); 2] = [
    ("interactive", SloClass::Interactive),
    ("batch", SloClass::Batch),
];

// ---------------------------------------------------------------- server

fn profiles() -> Vec<RuntimeProfile> {
    SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO_MS).build_profiles()
}

/// An engine over `share` GPUs, built as `arlo serve` builds it: natural
/// runtimes, the paper's engine config, a 120 s allocation period, and the
/// GPUs spread evenly with the longest runtime always deployed.
fn engine(share: u32) -> ArloEngine {
    let profiles = profiles();
    let n = profiles.len();
    let mut counts = vec![share / n as u32; n];
    for c in counts.iter_mut().take(share as usize % n) {
        *c += 1;
    }
    if counts[n - 1] == 0 {
        let donor = counts.iter().position(|&c| c > 0).expect("share >= 1");
        counts[donor] -= 1;
        counts[n - 1] += 1;
    }
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 120 * NANOS_PER_SEC;
    cfg.sub_window = (cfg.allocation_period / 12).max(NANOS_PER_SEC / 2);
    ArloEngine::new(profiles, counts, cfg)
}

/// The engines of the tenants, in [`TENANTS`] order, splitting the GPUs.
fn engines() -> Vec<ArloEngine> {
    (0..TENANTS.len())
        .map(|_| engine(GPUS / TENANTS.len() as u32))
        .collect()
}

fn spawn_server() -> std::io::Result<Server> {
    let config = ServeConfig {
        time_scale: SCALE as u32,
        batch: BATCH,
        ..ServeConfig::new(GPUS)
    };
    let tenants = TENANTS
        .iter()
        .zip(engines())
        .map(|(&(name, class), e)| (TenantSpec::new(name, class, SLO_MS), e))
        .collect();
    Server::spawn_multi(tenants, "127.0.0.1:0", config)
}

/// The `serve-child` role: serve until a line (or EOF) arrives on stdin,
/// then drain and print the conservation counters.
pub fn serve_child() -> Result<(), String> {
    let server = spawn_server().map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    let r = server.drain();
    writeln!(out, "DRAIN {}", drain_line(&r)).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn drain_line(r: &DrainReport) -> String {
    let mut fields = vec![
        ("submits".to_string(), r.submits),
        ("served".into(), r.served),
        ("shed".into(), r.shed),
        ("unserviceable".into(), r.unserviceable),
        ("failed".into(), r.failed),
        ("outstanding".into(), r.outstanding_at_close),
        ("reallocations".into(), r.reallocations),
        ("unknown_tenants".into(), r.unknown_tenants),
    ];
    for (i, t) in r.tenants.iter().enumerate() {
        fields.push((format!("t{i}.submits"), t.submits));
        fields.push((format!("t{i}.served"), t.served));
    }
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A running server child. Dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn() -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        let line = proc.line()?;
        proc.addr = line
            .strip_prefix("READY ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("server did not start: `{line}`"))?;
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("server pipe: {e}")),
        }
    }

    /// Drain the server, wait for it to exit, and return its counters.
    fn drain(&mut self) -> Result<HashMap<String, u64>, String> {
        drop(self.stdin.take());
        let line = self.line()?;
        let fields = line
            .strip_prefix("DRAIN ")
            .ok_or_else(|| format!("unexpected drain reply `{line}`"))?
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(fields),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after draining".into()),
                Err(e) => return Err(format!("wait server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------- client

/// One request of the schedule.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Due time, wall ns from the phase start.
    due_ns: u64,
    length: u32,
    tenant: u32,
}

/// The workload's requests, from the seed alone: a Twitter-Bursty trace
/// generated in virtual time and replayed [`SCALE`] times faster.
fn inputs(seed: u64, seconds: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rate, secs) = (RATE / SCALE as f64, (seconds * SCALE) as f64);
    let trace = TraceSpec::twitter_bursty(rate, secs).generate(&mut rng);
    // Stretch time so the realized mean rate is exactly the target: the
    // burst shape varies with the seed, the offered load does not.
    let stretch = trace.len() as f64 / (rate * secs);
    let mut tenants = StdRng::seed_from_u64(seed ^ 0x7e4a_17c5);
    trace
        .requests()
        .iter()
        .map(|r| Req {
            due_ns: (r.arrival as f64 * stretch) as u64 / SCALE,
            length: r.length,
            tenant: u32::from(tenants.next_u32() % 4 == 3),
        })
        .collect()
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(LOST_AFTER))
        .map_err(|e| e.to_string())?;
    let version = client_handshake(&mut stream).map_err(|e| format!("handshake: {e}"))?;
    if version != WireVersion::V2 {
        return Err(format!("negotiated {version:?}, expected V2"));
    }
    Ok(Conn {
        stream,
        reader: FrameReader::new(),
    })
}

/// What one phase (or one thread of it) observed.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    ok: u64,
    /// Error answers by wire code.
    errors: [u64; 8],
    /// Client latency (µs), from the due time.
    lat_us: Vec<f64>,
    /// Server-reported span ÷ time scale (µs).
    inside_us: Vec<f64>,
    /// When each OK answer arrived (ns from the phase base).
    recv_ns: Vec<u64>,
    /// Generator lateness (µs).
    late_us: Vec<f64>,
    /// Requests sent and answered OK within SLO, per tenant.
    tenant_sent: [u64; 2],
    tenant_slo_ok: [u64; 2],
    /// Ns from the phase base to the last answer.
    last_ns: u64,
    /// `(virtual arrival ns, length, tenant)` of the first requests sent.
    replay: Vec<(u64, u32, u32)>,
    spans: Option<Spans>,
}

impl Tally {
    fn slo_ok(&self) -> u64 {
        self.tenant_slo_ok.iter().sum()
    }

    /// Record an answer. `lat_ns` is client latency, `vlat_ns` the virtual
    /// latency judged against the SLO.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        frame: &Frame,
        tenant: u32,
        len: u32,
        recv_ns: u64,
        lat_ns: u64,
        vlat_ns: u64,
        max_lengths: &[u32],
    ) -> Result<(), String> {
        match *frame {
            Frame::Response {
                runtime_idx,
                latency_ns,
                ..
            } => {
                let fits = max_lengths
                    .get(usize::from(runtime_idx))
                    .is_some_and(|&m| len <= m);
                if !fits {
                    return Err(format!(
                        "length {len} placed on runtime {runtime_idx}, which cannot serve it"
                    ));
                }
                self.ok += 1;
                self.recv_ns.push(recv_ns);
                self.lat_us.push(lat_ns as f64 / 1e3);
                self.inside_us.push((latency_ns / SCALE) as f64 / 1e3);
                if vlat_ns as f64 <= SLO_MS * 1e6 {
                    self.tenant_slo_ok[tenant as usize] += 1;
                }
            }
            Frame::Error { code, .. } => self.errors[code as usize] += 1,
            _ => unreachable!("only answers are recorded"),
        }
        Ok(())
    }
}

fn answer_id(frame: &Frame) -> Result<u64, String> {
    match *frame {
        Frame::Response { id, .. } => Ok(id),
        Frame::Error { id, .. } if id != CONN_ERROR_ID => Ok(id),
        ref other => Err(format!("unexpected frame from server: {other:?}")),
    }
}

fn submit(buf: &mut Vec<u8>, id: u64, length: u32, tenant: u32) {
    Frame::Submit { id, length, tenant }.encode_into(WireVersion::V2, buf);
}

/// Set this thread's timer slack (ns) through `/proc`, returning the old
/// value. Threads inherit it from their creator, so the open loop's sleeps
/// wake on time without changing the server child's slack.
fn set_timer_slack(ns: u64) -> Option<u64> {
    let old = std::fs::read_to_string("/proc/self/timerslack_ns")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    std::fs::write("/proc/self/timerslack_ns", ns.to_string()).ok()?;
    Some(old)
}

fn write_nb(stream: &mut TcpStream, mut bytes: &[u8], abort: &AtomicBool) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("write: connection closed".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                if abort.load(Ordering::Relaxed) {
                    return Err("aborted".into());
                }
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// The sender: write each request at its due time.
fn sender(
    streams: &mut [TcpStream],
    reqs: &[Req],
    id0: u64,
    base: Instant,
    abort: &AtomicBool,
    traced: bool,
) -> Result<(Vec<f64>, Option<Spans>), String> {
    let ns = |i: Instant| i.saturating_duration_since(base).as_nanos() as u64;
    let mut spans = traced.then(|| Spans::new(base));
    let mut late = Vec::with_capacity(reqs.len());
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut i = 0;
    while i < reqs.len() {
        if abort.load(Ordering::Relaxed) {
            return Err("aborted".into());
        }
        let now = ns(Instant::now());
        if reqs[i].due_ns > now {
            std::thread::sleep(Duration::from_nanos(reqs[i].due_ns - now));
            continue;
        }
        let start = Instant::now();
        let first = i;
        while i < reqs.len() && reqs[i].due_ns <= now {
            let r = reqs[i];
            submit(&mut bufs[i % CONNS], id0 + i as u64, r.length, r.tenant);
            late.push((now - r.due_ns) as f64 / 1e3);
            i += 1;
        }
        for (stream, buf) in streams.iter_mut().zip(bufs.iter_mut()) {
            write_nb(stream, buf, abort)?;
            buf.clear();
        }
        if let Some(sp) = spans.as_mut() {
            let end = Instant::now();
            for j in (first..i).filter(|&j| Spans::sampled(id0 + j as u64)) {
                sp.push_at("client.send", start, end, ROOT, id0 + j as u64);
            }
        }
    }
    Ok((late, spans))
}

/// The receiver: poll both connections until every request is answered.
#[allow(clippy::too_many_arguments)]
fn receiver(
    conns: &mut [Conn],
    reqs: &[Req],
    id0: u64,
    max_lengths: &[u32],
    base: Instant,
    abort: &AtomicBool,
    traced: bool,
) -> Result<Tally, String> {
    let ns = |i: Instant| i.saturating_duration_since(base).as_nanos() as u64;
    let mut t = Tally {
        spans: traced.then(|| Spans::new(base)),
        sent: reqs.len() as u64,
        ..Tally::default()
    };
    for r in reqs {
        t.tenant_sent[r.tenant as usize] += 1;
    }
    t.replay = reqs
        .iter()
        .take(REPLAY_MAX)
        .map(|r| (r.due_ns * SCALE, r.length, r.tenant))
        .collect();
    let lost_at = base + Duration::from_nanos(reqs.last().map_or(0, |r| r.due_ns)) + LOST_AFTER;
    let mut answered = vec![false; reqs.len()];
    let mut left = reqs.len();
    let mut fills = 0u64;
    while left > 0 {
        let mut progressed = false;
        for conn in conns.iter_mut() {
            loop {
                let start = Instant::now();
                match conn.reader.fill(&mut conn.stream) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("read: {e}")),
                }
                progressed = true;
                let recv_ns = ns(Instant::now());
                while let Some(frame) = conn
                    .reader
                    .next_frame()
                    .map_err(|e| format!("decode: {e}"))?
                {
                    let id = answer_id(&frame)?;
                    let idx = id
                        .checked_sub(id0)
                        .map(|i| i as usize)
                        .filter(|&i| i < reqs.len());
                    let Some(idx) = idx.filter(|&i| !answered[i]) else {
                        return Err(format!("answer for unknown or answered id {id}"));
                    };
                    answered[idx] = true;
                    left -= 1;
                    let r = reqs[idx];
                    let lat = recv_ns.saturating_sub(r.due_ns);
                    t.answer(
                        &frame,
                        r.tenant,
                        r.length,
                        recv_ns,
                        lat,
                        lat * SCALE,
                        max_lengths,
                    )?;
                    if let (Some(sp), Frame::Response { latency_ns, .. }) =
                        (t.spans.as_mut(), &frame)
                    {
                        if Spans::sampled(id) {
                            let parent = sp.push("client.request", r.due_ns, recv_ns, ROOT, id);
                            sp.push(
                                "server.inside",
                                recv_ns.saturating_sub(latency_ns / SCALE),
                                recv_ns,
                                parent,
                                id,
                            );
                        }
                    }
                }
                fills += 1;
                if let Some(sp) = t.spans.as_mut() {
                    if fills.is_multiple_of(64) {
                        sp.push_at("client.receive", start, Instant::now(), ROOT, fills);
                    }
                }
                t.last_ns = recv_ns;
            }
        }
        if !progressed {
            if abort.load(Ordering::Relaxed) {
                return Err("sender failed".into());
            }
            if Instant::now() > lost_at {
                return Err(format!("{left} requests never answered"));
            }
            std::thread::sleep(POLL);
        }
    }
    Ok(t)
}

/// One timed phase: the whole schedule, sent by one thread and received by
/// another.
fn phase(
    conns: &mut [Conn],
    reqs: &[Req],
    id0: u64,
    max_lengths: &[u32],
    traced: bool,
) -> Result<(Tally, f64), String> {
    let mut writers = Vec::with_capacity(conns.len());
    for c in conns.iter() {
        c.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        writers.push(c.stream.try_clone().map_err(|e| e.to_string())?);
    }
    let abort = AtomicBool::new(false);
    let old_slack = set_timer_slack(1_000);
    let base = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let r = sender(&mut writers, reqs, id0, base, &abort, traced);
            if r.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            r
        });
        let receiver = s.spawn(|| {
            let r = receiver(conns, reqs, id0, max_lengths, base, &abort, traced);
            if r.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            r
        });
        if let Some(old) = old_slack {
            set_timer_slack(old);
        }
        let panicked = "client thread panicked".to_string();
        (
            sender.join().unwrap_or_else(|_| Err(panicked.clone())),
            receiver.join().unwrap_or(Err(panicked)),
        )
    });
    for c in conns.iter() {
        c.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    let mut t = received?;
    let (late, spans) = sent?;
    t.late_us = late;
    if let (Some(all), Some(sp)) = (t.spans.as_mut(), spans) {
        all.absorb(sp);
    }
    let wall = t.last_ns as f64 / 1e9;
    Ok((t, wall))
}

/// The p99 client latency of a typical moment: the median over the phase's
/// whole [`SEGMENT_NS`] segments (those ending by `end_ns`) of each
/// segment's p99. A host stall inflates the p99 of the segments it hits,
/// not the median segment's. Falls back to the whole phase when no segment
/// is whole.
fn typical_tail(recv_ns: &[u64], lat_us: &[f64], end_ns: u64) -> Metric {
    let whole = (end_ns / SEGMENT_NS) as usize;
    let mut segs: Vec<Vec<f64>> = vec![Vec::new(); whole];
    for (&r, &l) in recv_ns.iter().zip(lat_us) {
        if let Some(seg) = segs.get_mut((r / SEGMENT_NS) as usize) {
            seg.push(l);
        }
    }
    segs.retain(|s| !s.is_empty());
    if segs.is_empty() {
        return Metric::pct(
            "latency_tail_us",
            stats::tail_sorted(&stats::sorted(lat_us.to_vec()), TAIL_PCT),
            1.0,
        );
    }
    let tails: Vec<stats::Pct> = segs
        .into_iter()
        .map(|s| stats::tail_sorted(&stats::sorted(s), TAIL_PCT))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let fewest = tails.iter().map(|t| t.samples).min().unwrap_or(0);
    let lowest = tails.iter().map(|t| t.pct).fold(TAIL_PCT, f64::min);
    Metric::with(
        "latency_tail_us",
        stats::median(&values),
        format!(
            "median of {} 100-ms segments' p{lowest} (>= {fewest} samples each)",
            tails.len()
        ),
    )
}

// ---------------------------------------------------------------- replay

/// Push the phase's first requests through the public functions the server
/// composes — frame decode, engine placement, coalescing, completion
/// reporting, response encode — on one thread, timing each call.
fn replay(reqs: &[(u64, u32, u32)], spans: &mut Spans) -> Vec<Metric> {
    type Key = (usize, usize, usize);
    let engines = engines();
    let policy = BATCH;
    let exec_ms: Vec<f64> = engines[0].profiles().iter().map(|p| p.exec_ms).collect();
    let mut coalescers: HashMap<Key, Coalescer<(u64, Placement)>> = HashMap::new();
    let mut done: BinaryHeap<Reverse<(u64, Key, u64, u64)>> = BinaryHeap::new();
    let mut batches: HashMap<(u64, Key), Vec<(u64, Placement)>> = HashMap::new();
    let (mut decode, mut submit_t, mut push, mut report, mut encode) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut refused = 0u64;
    let mut frame_buf = Vec::with_capacity(64);
    let mut out_buf = Vec::with_capacity(64);
    let mut seq = 0u64;
    let mut seal = |key: Key,
                    c: &mut Coalescer<(u64, Placement)>,
                    now: u64,
                    done: &mut BinaryHeap<_>,
                    batches: &mut HashMap<_, _>| {
        let mut exec_of = |items: &[(u64, Placement)], b: usize| {
            policy
                .spec
                .exec_ns((exec_ms[items[0].1.runtime_idx] * 1e6) as u64, b, 1.0, 1.0)
        };
        for batch in c.drain_ready(now, &mut exec_of) {
            seq += 1;
            done.push(Reverse((batch.finished_at, key, seq, batch.exec_ns)));
            batches.insert((seq, key), batch.items);
        }
    };
    let mut complete_until = |now: u64,
                              done: &mut BinaryHeap<Reverse<(u64, Key, u64, u64)>>,
                              batches: &mut HashMap<(u64, Key), Vec<(u64, Placement)>>,
                              spans: &mut Spans| {
        while let Some(&Reverse((at, key, s, exec_ns))) = done.peek() {
            if at > now {
                break;
            }
            done.pop();
            let items = batches.remove(&(s, key)).expect("sealed batch recorded");
            let n = items.len() as u32;
            let t0 = Instant::now();
            engines[key.0].report_batch(items[0].1, n, 0, at, exec_ns as f64 / f64::from(n));
            let t1 = Instant::now();
            report.push(t1.duration_since(t0).as_nanos() as f64);
            if Spans::sampled(items[0].0) {
                spans.push_at("replay.report", t0, t1, ROOT, items[0].0);
            }
            for (id, p) in items {
                out_buf.clear();
                let frame = Frame::Response {
                    id,
                    generation: p.generation,
                    runtime_idx: p.runtime_idx as u16,
                    instance_idx: p.instance_idx as u16,
                    latency_ns: at,
                };
                let t0 = Instant::now();
                frame.encode_into(WireVersion::V2, &mut out_buf);
                let t1 = Instant::now();
                encode.push(t1.duration_since(t0).as_nanos() as f64);
                if Spans::sampled(id) {
                    spans.push_at("replay.encode", t0, t1, ROOT, id);
                }
            }
        }
    };
    for (i, &(at, length, tenant)) in reqs.iter().enumerate() {
        let id = i as u64;
        for (&key, c) in coalescers.iter_mut() {
            if c.next_deadline().is_some_and(|d| d <= at) {
                seal(key, c, at, &mut done, &mut batches);
            }
        }
        complete_until(at, &mut done, &mut batches, spans);
        frame_buf.clear();
        submit(&mut frame_buf, id, length, tenant);
        let t0 = Instant::now();
        let decoded = Frame::decode(std::hint::black_box(&frame_buf));
        let t1 = Instant::now();
        assert!(decoded.is_ok(), "a frame this process encoded decodes");
        decode.push(t1.duration_since(t0).as_nanos() as f64);
        let engine = &engines[tenant as usize];
        let t2 = Instant::now();
        let placed = engine.submit(length, at);
        let t3 = Instant::now();
        submit_t.push(t3.duration_since(t2).as_nanos() as f64);
        if Spans::sampled(id) {
            spans.push_at("replay.decode", t0, t1, ROOT, id);
            spans.push_at("replay.submit", t2, t3, ROOT, id);
        }
        let Some(p) = placed else {
            refused += 1;
            continue;
        };
        let key = (tenant as usize, p.runtime_idx, p.instance_idx);
        let c = coalescers
            .entry(key)
            .or_insert_with(|| Coalescer::new(policy));
        let t4 = Instant::now();
        c.push(at, (id, p));
        let t5 = Instant::now();
        push.push(t5.duration_since(t4).as_nanos() as f64);
        if Spans::sampled(id) {
            spans.push_at("replay.push", t4, t5, ROOT, id);
        }
        seal(key, c, at, &mut done, &mut batches);
    }
    for (&key, c) in coalescers.iter_mut() {
        seal(key, c, u64::MAX, &mut done, &mut batches);
    }
    complete_until(u64::MAX, &mut done, &mut batches, spans);
    let sealed = seq;
    let placed = reqs.len() as u64 - refused;
    let med = |name: &'static str, v: Vec<f64>| {
        Metric::pct(name, stats::median_sorted(&stats::sorted(v)), 1.0)
    };
    vec![
        med("serve.protocol.decode_ns", decode),
        med("serve.protocol.encode_ns", encode),
        med("core.engine.submit_ns", submit_t),
        med("core.engine.report_ns", report),
        Metric::with(
            "core.engine.refused_share",
            ratio(refused as f64, reqs.len() as f64),
            format!("of {}", reqs.len()),
        ),
        med("runtime.batching.push_ns", push),
        Metric::with(
            "runtime.batching.batch_mean",
            ratio(placed as f64, sealed as f64),
            format!("{sealed} batches"),
        ),
    ]
}

// ---------------------------------------------------------------- run

/// What every phase of a run sent and got back.
#[derive(Default)]
struct Totals {
    sent: u64,
    ok: u64,
    wall: f64,
    phases: u64,
}

impl Totals {
    /// First request id of the next phase: each phase has its own range.
    fn next_ids(&self) -> u64 {
        self.phases << 40
    }

    /// Count a phase, checking every request it sent was answered.
    fn add(&mut self, t: &Tally, wall: f64) -> Result<(), String> {
        let answered = t.ok + t.errors.iter().sum::<u64>();
        if answered != t.sent {
            return Err(format!("{} sent but {answered} answered", t.sent));
        }
        self.sent += t.sent;
        self.ok += t.ok;
        self.wall += wall;
        self.phases += 1;
        Ok(())
    }
}

/// Run `live-bursty`: set up [`SETUP_REPS`] times, measure one phase
/// untraced, and on a traced run a second, traced phase plus the replay.
pub fn run(seed: u64, seconds: u64, traced: bool, spans: &mut Spans) -> Result<Outcome, String> {
    let max_lengths: Vec<u32> = profiles().iter().map(|p| p.max_length()).collect();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let reqs = inputs(seed, seconds);
        let mut server = ServerProc::spawn()?;
        let conns: Vec<Conn> = (0..CONNS)
            .map(|_| connect(server.addr))
            .collect::<Result<_, _>>()?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(conns);
            let d = server.drain()?;
            if d.get("submits") != Some(&0) {
                return Err(format!("an idle server counted submits: {d:?}"));
            }
        } else {
            ready = Some((reqs, server, conns));
        }
    }
    let (reqs, mut server, mut conns) = ready.expect("SETUP_REPS >= 1");
    let pid = server.pid();

    let phase = |conns: &mut Vec<Conn>, id0: u64, traced: bool| {
        phase(conns, &reqs, id0, &max_lengths, traced)
    };
    // The drain report is checked against the totals of every phase.
    let mut totals = Totals::default();
    let proc_sample = || procfs::sample(pid).map_err(|e| format!("/proc of server: {e}"));
    let before = proc_sample()?;
    let client_cpu0 = procfs::self_cpu_s();
    let (a, wall_a) = phase(&mut conns, totals.next_ids(), false)?;
    let client_cpu = procfs::self_cpu_s() - client_cpu0;
    let after = proc_sample()?;
    totals.add(&a, wall_a)?;
    let traced_phase = if traced {
        let (b, wall_b) = phase(&mut conns, totals.next_ids(), true)?;
        totals.add(&b, wall_b)?;
        Some((b, wall_b))
    } else {
        None
    };
    let Totals {
        sent,
        ok: ok_total,
        wall: wall_total,
        ..
    } = totals;
    drop(conns);
    let drained = server.drain()?;
    drop(server);

    // Correctness gates.
    let d = |k: &str| {
        drained
            .get(k)
            .copied()
            .ok_or_else(|| format!("drain report lacks `{k}`"))
    };
    let (submits, served) = (d("submits")?, d("served")?);
    if submits != d("served")? + d("shed")? + d("unserviceable")? + d("failed")?
        || d("outstanding")? != 0
    {
        return Err(format!("server drain does not conserve: {drained:?}"));
    }
    if submits != sent {
        return Err(format!(
            "client sent {sent} but the server counted {submits} submits"
        ));
    }
    if served != ok_total {
        return Err(format!(
            "server served {served} but the client received {ok_total} responses"
        ));
    }
    if a.ok == 0 {
        return Err("no request was answered OK".into());
    }
    let late = stats::tail_sorted(&stats::sorted(a.late_us.clone()), 99.0);
    if late.value > LATE_BOUND_US {
        return Err(format!(
            "generator p99 lateness {:.0} us exceeds {LATE_BOUND_US} us",
            late.value
        ));
    }

    let mut o = Outcome {
        attempted: a.sent,
        failed: a.sent - a.ok,
        metrics: Vec::new(),
    };
    let lat = stats::sorted(a.lat_us.clone());
    let phase_end_ns = reqs.last().map_or(0, |r| r.due_ns);
    let ok = a.ok as f64;
    let cpu_s = (after.cpu_ticks - before.cpu_ticks) as f64 / procfs::TICKS_PER_SEC;
    if !traced {
        o.metrics = vec![
            Metric::with(
                "setup_s",
                stats::median(&setups),
                format!("median of {SETUP_REPS}"),
            ),
            Metric::new("peak_rss_mb", after.vm_hwm_kb as f64 / 1024.0),
            Metric::with(
                "throughput_per_s",
                ok / wall_a,
                format!("{} OK in {wall_a:.3} s", a.ok),
            ),
            Metric::pct("latency_p50_us", stats::median_sorted(&lat), 1.0),
            typical_tail(&a.recv_ns, &a.lat_us, phase_end_ns),
            Metric::with(
                "cpu_us_per_op",
                cpu_s * 1e6 / ok,
                format!("{cpu_s:.2} CPU-s"),
            ),
            Metric::new("ok_share", ok / a.sent as f64),
            Metric::new("slo_attainment", a.slo_ok() as f64 / a.sent as f64),
        ];
        return Ok(o);
    }

    let groups = procfs::delta_by_group(&before, &after);
    let g = |grp: procfs::Group| groups[&grp];
    let per_req = |v: f64| v / ok;
    let server = g(procfs::Group::Server);
    let preempt: u64 = groups.values().map(|d| d.preemptions).sum();
    let syscalls =
        (after.io.syscr + after.io.syscw).saturating_sub(before.io.syscr + before.io.syscw);
    let inside = stats::sorted(a.inside_us.clone());
    let outside = stats::sorted(
        a.lat_us
            .iter()
            .zip(&a.inside_us)
            .map(|(l, i)| (l - i).max(0.0))
            .collect(),
    );
    let tenant_att = |t: usize| ratio(a.tenant_slo_ok[t] as f64, a.tenant_sent[t] as f64);
    let (b, _) = traced_phase.expect("traced run has a traced phase");
    let overhead = ratio(stats::median(&b.lat_us), stats::median(&a.lat_us)) - 1.0;
    o.metrics = vec![
        Metric::new("serve.server.cpu_us_per_req", per_req(server.cpu_s * 1e6)),
        Metric::new(
            "serve.server.wakeups_per_req",
            per_req(server.wakeups as f64),
        ),
        Metric::new("serve.server.syscalls_per_req", per_req(syscalls as f64)),
        Metric::new("serve.server.preemptions_per_req", per_req(preempt as f64)),
        Metric::new(
            "serve.server.threads",
            before.threads.len().max(after.threads.len()) as f64,
        ),
        Metric::new(
            "serve.dispatch.cpu_us_per_req",
            per_req(g(procfs::Group::Dispatch).cpu_s * 1e6),
        ),
        Metric::new(
            "serve.dispatch.wakeups_per_req",
            per_req(g(procfs::Group::Dispatch).wakeups as f64),
        ),
        Metric::new(
            "serve.executor.cpu_us_per_req",
            per_req(g(procfs::Group::Executor).cpu_s * 1e6),
        ),
        Metric::new(
            "serve.executor.wakeups_per_req",
            per_req(g(procfs::Group::Executor).wakeups as f64),
        ),
        Metric::new(
            "serve.control.cpu_ms_per_s",
            g(procfs::Group::Control).cpu_s * 1e3 / wall_a,
        ),
        Metric::new(
            "serve.control.wakeups_per_s",
            g(procfs::Group::Control).wakeups as f64 / wall_a,
        ),
        Metric::new(
            "serve.other.cpu_us_per_req",
            per_req(g(procfs::Group::Other).cpu_s * 1e6),
        ),
        Metric::pct(
            "serve.executor.inside_us_p50",
            stats::median_sorted(&inside),
            1.0,
        ),
        Metric::pct(
            "serve.executor.inside_us_p99",
            stats::tail_sorted(&inside, 99.0),
            1.0,
        ),
        Metric::pct(
            "serve.server.outside_us_p50",
            stats::median_sorted(&outside),
            1.0,
        ),
        Metric::with(
            "core.runtime_scheduler.reallocations_per_s",
            d("reallocations")? as f64 / wall_total,
            format!("{} in {wall_total:.2} s", d("reallocations")?),
        ),
        Metric::new("serve.tenants.attainment.interactive", tenant_att(0)),
        Metric::new("serve.tenants.attainment.batch", tenant_att(1)),
        Metric::with(
            "client.cpu_us_per_req",
            per_req(client_cpu * 1e6),
            format!("{client_cpu:.2} CPU-s"),
        ),
        Metric::with(
            "trace_overhead_share",
            overhead,
            "traced phase vs untraced phase",
        ),
    ];
    let mut m = Metric::pct("client.late_p99_us", late, 1.0);
    m.how += &format!(", mean {:.1} us", stats::mean(&a.late_us));
    o.metrics.push(m);
    if let Some(sp) = b.spans {
        spans.absorb(sp);
    }
    o.metrics.extend(replay(&a.replay, spans));
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_read_from_the_median_segment() {
        // Four whole 100 ms segments of 100 samples each, then a partial
        // one. Segment 2 holds a stall; the partial segment is ignored.
        let mut recv = Vec::new();
        let mut lat = Vec::new();
        for seg in 0..5u64 {
            let n = if seg == 4 { 20 } else { 100 };
            for i in 0..n {
                recv.push(seg * SEGMENT_NS + i);
                let stall = if seg == 2 { 1000.0 } else { 1.0 };
                lat.push(stall * (i + 1) as f64 + seg as f64);
            }
        }
        let m = typical_tail(&recv, &lat, 4 * SEGMENT_NS + SEGMENT_NS / 2);
        // Segment p90s (100 samples leave ten beyond p90): 90, 91, 90002,
        // 93. The nearest-rank median of four is the second smallest.
        assert_eq!(m.value, 91.0);
        assert!(
            m.how.starts_with("median of 4 100-ms segments' p90"),
            "{}",
            m.how
        );
        // No whole segment: the whole phase's tail.
        let m = typical_tail(&recv[..50], &lat[..50], 10);
        assert!(m.how.contains("of 50"), "{}", m.how);
    }
}
