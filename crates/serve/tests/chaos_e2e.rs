//! End-to-end robustness tests: the server under deliberately hostile
//! clients and injected faults.
//!
//! Seven properties, each the regression test for one hardening layer:
//!
//! 1. **Idle reaping** — a connection that never speaks is closed after
//!    the idle window and deregistered, not leaked (the pre-hardening
//!    server blocked forever in `read_frame` on half-open sockets).
//! 2. **Slow-client isolation** — one client that stops reading
//!    mid-response-stream is doomed with a bounded delay while healthy
//!    connections' latencies stay within 2× of the same load without the
//!    stall; dispatch and executor completion never block on its socket.
//! 3. **Drain under chaos** — with fault-injected clients (corruption,
//!    resets), the client-side conservation invariant and the server-side
//!    drain equation both balance exactly: nothing is silently lost on
//!    either side of the wire.
//! 4. **Executor panic recovery** — an injected completion-callback panic
//!    is caught, the batch is re-accounted as failed (typed answers, engine
//!    report), and the drain still finishes clean.
//! 5. **Server-side chaos** — the same conservation laws hold when the
//!    faults are injected on the *server's* accepted sockets
//!    ([`ServeConfig::server_chaos`]), not just the clients'.
//! 6. **Checksums end phantom terminal states** — under heavy corruption a
//!    v2 pool records zero `unserviceable` verdicts: a bit-flipped frame
//!    can no longer decode into a well-formed refusal that kills a healthy
//!    request (the ~1.7% phantom-unserviceable rate of the v1 stack).
//! 7. **Credibility heuristic retired on v2** — the v1 `latency_ns`
//!    plausibility bound still fires on legacy connections but is
//!    structurally off on negotiated v2 connections, where the CRC
//!    subsumes it.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::{ChaosConfig, FaultClass};
use arlo_serve::loadgen::{
    chaos_replay, replay, ChaosReplayConfig, LoadGenConfig, LoadGenReport, ProtocolMode,
};
use arlo_serve::protocol::{read_frame, Frame, WireVersion, DEFAULT_TENANT};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
const SCALE: u32 = 100;

fn engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let n = profiles.len();
    let counts = vec![GPUS / n as u32 + 1; n];
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 10 * NANOS_PER_SEC;
    ArloEngine::new(profiles, counts, cfg)
}

fn config() -> ServeConfig {
    ServeConfig {
        time_scale: SCALE,
        queue_capacity: 8192,
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(GPUS)
    }
}

/// Spin until `cond` holds or `within` elapses; true iff it held.
fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn idle_connections_are_reaped_and_deregistered() {
    let mut cfg = config();
    cfg.read_timeout = Duration::from_millis(25);
    cfg.idle_timeout = Duration::from_millis(250);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Two silent connections held open: peers that will never speak (the
    // TCP equivalent of a half-open socket — no bytes, no FIN).
    let held = TcpStream::connect(addr).expect("connect");
    let held2 = TcpStream::connect(addr).expect("connect");
    assert!(
        eventually(Duration::from_secs(2), || server.active_connections() == 2),
        "connections never registered"
    );

    // Both idle out within the window (plus poll slack)…
    assert!(
        eventually(Duration::from_secs(5), || server.reaped_idle() >= 2),
        "idle connections were not reaped: {} reaped, {} active",
        server.reaped_idle(),
        server.active_connections()
    );
    // …and the regression claim: their shard closes and deregisters them
    // rather than leaking them. Pre-hardening, a silent peer held its
    // connection open forever and drain hung on it.
    assert!(
        eventually(Duration::from_secs(5), || server.active_connections() == 0),
        "connections leaked after reaping: {} active, {} reaped",
        server.active_connections(),
        server.reaped_idle()
    );
    assert_eq!(server.reaped_idle(), 2);
    drop(held);
    drop(held2);

    let drain = server.drain();
    assert_eq!(drain.reaped_idle, 2);
    assert_eq!(drain.outstanding_at_close, 0);
}

/// Drive the standard mix plus one bulk client; if `stall`, the bulk
/// client stops reading entirely, so its answers back up through the
/// kernel buffers into the server's bounded outbound queue.
///
/// The bulk requests are *unserviceable* (length beyond the compiled
/// maximum), so their answers are synthesized in the dispatch thread and
/// never occupy the executor: the healthy connections' latencies then
/// measure only transport leakage — the hazard under test — not queueing
/// behind the flood's execution.
fn run_mix(stall: bool) -> (LoadGenReport, DrainReport, u64) {
    // Sized so the stalled client's answer backlog (17 B/error frame)
    // exceeds what the kernel can absorb for a never-reading peer (sndbuf
    // autotunes to at most 4 MB here, rcvbuf stays at its 128 KB initial
    // without reads, ~250k frames together), guaranteeing the shard's
    // writes block and the bounded queue fills.
    const BULK: u64 = 400_000;
    let mut cfg = config();
    // Big enough that transient write hiccups never overflow it for a
    // reading client; small enough that a stalled client's backlog (200k
    // frames ≫ queue + kernel buffers) overflows it once its writes
    // block on the dead socket.
    cfg.outbound_queue = 16 * 1024;
    cfg.write_timeout = Duration::from_millis(150);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let bulk = std::thread::spawn(move || {
        let conn = TcpStream::connect(addr).expect("connect");
        let _ = conn.set_nodelay(true);
        let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));

        // Well-behaved twin reads *concurrently with* the submit burst —
        // write-then-read would stall the answer stream during the write
        // phase exactly like the failure being tested. Raw discard reads:
        // consumption must outpace the server's error-frame storm, and
        // nothing in this test needs the twin to parse its answers.
        let reader = (!stall).then(|| {
            let mut conn = conn.try_clone().expect("clone");
            std::thread::spawn(move || {
                let mut sink = [0u8; 64 * 1024];
                let mut quiet = 0;
                loop {
                    match conn.read(&mut sink) {
                        Ok(0) => break,
                        Ok(_) => quiet = 0,
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            // Two silent timeout windows = stream is done.
                            quiet += 1;
                            if quiet >= 2 {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
        });

        let mut writer = conn;
        'burst: for chunk in 0..BULK / 2_000 {
            for i in chunk * 2_000..(chunk + 1) * 2_000 {
                let frame = Frame::Submit {
                    id: 10_000_000 + i,
                    length: 1_000_000, // beyond every compiled runtime
                    tenant: DEFAULT_TENANT,
                };
                if frame.write_to(&mut writer).is_err() {
                    break 'burst; // doomed mid-burst — expected when stalling
                }
            }
            // High but bounded offered rate (~2M req/s): the server's
            // answers are produced at the same pace, so a *reading* client
            // never legitimately overflows the outbound queue.
            std::thread::sleep(Duration::from_millis(1));
        }
        if stall {
            // Never read a byte: the server must doom this connection
            // rather than let its answers block anyone else.
            std::thread::sleep(Duration::from_secs(2));
        }
        if let Some(reader) = reader {
            reader.join().expect("bulk reader panicked");
        }
    });

    let mut rng = StdRng::seed_from_u64(11);
    let trace = TraceSpec::twitter_stable(600.0, 4.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, SCALE)).expect("replay");
    bulk.join().expect("bulk client panicked");

    let slow = server.slow_disconnects();
    let drain = server.drain();
    (report, drain, slow)
}

#[test]
fn stalled_client_is_doomed_without_hurting_healthy_connections() {
    let (baseline, base_drain, _) = run_mix(false);
    let (report, drain, slow_disconnects) = run_mix(true);

    assert_eq!(baseline.lost, 0, "baseline lost answers: {baseline:?}");
    assert_eq!(base_drain.slow_disconnects, 0, "baseline doomed someone");

    // The stalled connection was detected and doomed (queue overflow or
    // write timeout), not allowed to wedge the server.
    assert!(
        slow_disconnects >= 1,
        "stalled client was never disconnected: {drain:?}"
    );
    // Healthy connections: exactly-once answers, and a p98 within 2× of
    // the identical load without the stall. The latencies are virtual
    // dispatch→completion times, so a completion path blocked on the
    // stalled socket would show up here as inflation.
    assert_eq!(report.lost, 0, "healthy clients lost answers: {report:?}");
    assert_eq!(report.accounted(), report.sent);
    let base_p98 = baseline.latency_summary().p98.max(1.0);
    let p98 = report.latency_summary().p98;
    assert!(
        p98 <= 2.0 * base_p98,
        "stall leaked into healthy latencies: p98 {p98:.2} ms vs baseline {base_p98:.2} ms"
    );
    // Server-side conservation still balances with a doomed connection's
    // answers discarded: every decoded submit is accounted.
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server-side accounting leaked: {drain:?}"
    );
    assert_eq!(drain.outstanding_at_close, 0);
}

#[test]
fn drain_under_chaos_conserves_every_request() {
    for (class, intensity) in [(FaultClass::Corrupt, 0.5), (FaultClass::Reset, 0.5)] {
        let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
        let addr = server.local_addr();

        let mut rng = StdRng::seed_from_u64(23);
        let trace = TraceSpec::twitter_stable(150.0, 2.0).generate(&mut rng);
        let mut cfg = ChaosReplayConfig::new(3, ChaosConfig::new(class, intensity, 1234));
        cfg.max_attempts = 8;
        cfg.attempt_timeout = Duration::from_millis(250);
        cfg.backoff_base = Duration::from_millis(1);
        let report = chaos_replay(addr, &trace, &cfg).expect("chaos replay");

        // Client side: every request reached exactly one terminal state.
        assert!(
            report.conserved(),
            "{} client conservation violated: {report:?}",
            class.name()
        );
        assert!(
            report.ok > 0,
            "{} killed every request: {report:?}",
            class.name()
        );

        // Server side: the drain equation balances exactly — submits that
        // made it off the wire are all accounted, none stuck.
        let drain = server.drain();
        assert_eq!(
            drain.outstanding_at_close,
            0,
            "{} left work outstanding: {drain:?}",
            class.name()
        );
        assert_eq!(
            drain.submits,
            drain.served + drain.shed + drain.unserviceable + drain.failed,
            "{} server conservation violated: {drain:?}",
            class.name()
        );
    }
}

#[test]
fn server_side_chaos_conserves_every_request() {
    // Faults on both sides of the wire at once: the server's accepted
    // sockets corrupt reads and writes (plans drawn per connection from
    // `server_chaos`), while the clients run their own corrupting streams.
    // Conservation must still be an equality on both ends.
    let cfg = config().with_server_chaos(ChaosConfig::new(FaultClass::Corrupt, 0.5, 4242));
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(31);
    let trace = TraceSpec::twitter_stable(150.0, 2.0).generate(&mut rng);
    let mut cfg = ChaosReplayConfig::new(3, ChaosConfig::new(FaultClass::Corrupt, 0.25, 5678));
    cfg.max_attempts = 8;
    cfg.attempt_timeout = Duration::from_millis(250);
    cfg.backoff_base = Duration::from_millis(1);
    let report = chaos_replay(addr, &trace, &cfg).expect("chaos replay");

    assert!(
        report.conserved(),
        "client conservation violated under server-side chaos: {report:?}"
    );
    assert!(
        report.ok > 0,
        "server-side chaos killed every request: {report:?}"
    );

    let drain = server.drain();
    assert_eq!(
        drain.outstanding_at_close, 0,
        "server-side chaos left work outstanding: {drain:?}"
    );
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server conservation violated under server-side chaos: {drain:?}"
    );
}

#[test]
fn v2_checksums_eliminate_phantom_unserviceable_under_heavy_corruption() {
    // The headline v1 failure mode this protocol revision retires: at
    // Corrupt@0.75 a bit-flipped frame occasionally decodes as a
    // well-formed `Error { Unserviceable }`, terminally killing a healthy
    // request (~1.7% of the trace on the v1 stack). On a negotiated v2
    // pool every flip dies at the CRC, so the phantom rate is exactly
    // zero — and the credibility heuristic, retired on v2, never fires.
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(23);
    let trace = TraceSpec::twitter_stable(150.0, 2.0).generate(&mut rng);
    let mut cfg = ChaosReplayConfig::new(3, ChaosConfig::new(FaultClass::Corrupt, 0.75, 1234));
    cfg.max_attempts = 8;
    cfg.attempt_timeout = Duration::from_millis(250);
    cfg.backoff_base = Duration::from_millis(1);
    let report = chaos_replay(addr, &trace, &cfg).expect("chaos replay");

    assert!(report.conserved(), "conservation violated: {report:?}");
    assert!(report.ok > 0, "corruption killed every request: {report:?}");
    assert_eq!(
        report.unserviceable, 0,
        "corruption forged an Unserviceable verdict through the checksum: {report:?}"
    );
    assert_eq!(
        report.credibility_rejects, 0,
        "retired v1 heuristic fired on a v2 connection: {report:?}"
    );
    assert!(
        report.corrupt_signals > 0,
        "at 0.75 intensity the server should have checksummed away submits: {report:?}"
    );

    let drain = server.drain();
    assert_eq!(
        drain.unserviceable, 0,
        "a corrupted submit decoded into a real one: {drain:?}"
    );
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed
    );
    assert_eq!(drain.outstanding_at_close, 0);
}

/// A hand-rolled server that negotiates honestly but reports an absurd
/// virtual latency (one hour) in every `Response` — the decoded-but-wrong
/// shape the v1 credibility heuristic exists to catch.
fn absurd_latency_server() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { break };
            std::thread::spawn(move || {
                let _ = conn.set_nodelay(true);
                let mut version = WireVersion::V1;
                loop {
                    match read_frame(&mut conn) {
                        Ok(Some(Frame::Hello { max_version })) => {
                            version = WireVersion::negotiate(max_version);
                            let ack = Frame::HelloAck {
                                version: version.byte(),
                            };
                            if ack.write_to(&mut conn).is_err() {
                                break;
                            }
                        }
                        Ok(Some(Frame::Submit { id, .. })) => {
                            let absurd = Frame::Response {
                                id,
                                generation: 0,
                                runtime_idx: 0,
                                instance_idx: 0,
                                latency_ns: 3_600 * NANOS_PER_SEC,
                            };
                            if absurd.write_to_v(&mut conn, version).is_err() {
                                break;
                            }
                        }
                        Ok(Some(_)) => {}
                        Ok(None) | Err(_) => break,
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn credibility_heuristic_fires_on_v1_and_is_retired_on_v2() {
    let addr = absurd_latency_server();
    let mut rng = StdRng::seed_from_u64(77);
    let trace = TraceSpec::twitter_stable(60.0, 1.0).generate(&mut rng);

    // Zero-intensity chaos: the full retry/credibility machinery with a
    // clean wire, so every verdict below is the heuristic's alone.
    let base = || {
        let mut cfg = ChaosReplayConfig::new(2, ChaosConfig::new(FaultClass::Corrupt, 0.0, 9));
        cfg.max_attempts = 3;
        cfg.attempt_timeout = Duration::from_millis(250);
        cfg.backoff_base = Duration::from_millis(1);
        cfg
    };

    // Legacy (v1) connections: the unchecksummed latency field cannot be
    // trusted, so the absurd value is rejected as presumed corruption on
    // every attempt and each request exhausts its budget.
    let legacy =
        chaos_replay(addr, &trace, &base().with_protocol(ProtocolMode::Legacy)).expect("legacy");
    assert!(legacy.conserved(), "legacy conservation: {legacy:?}");
    assert!(
        legacy.credibility_rejects > 0,
        "v1 heuristic never fired on an absurd latency: {legacy:?}"
    );
    assert_eq!(
        legacy.ok, 0,
        "v1 believed a latency beyond the credibility bound: {legacy:?}"
    );
    assert_eq!(legacy.exhausted, legacy.requests, "{legacy:?}");

    // Negotiated v2 connections: the frame survived its CRC, so whatever
    // latency it carries is what the server wrote — believed verbatim,
    // heuristic structurally off.
    let modern = chaos_replay(addr, &trace, &base()).expect("negotiate");
    assert!(modern.conserved(), "v2 conservation: {modern:?}");
    assert_eq!(
        modern.credibility_rejects, 0,
        "retired heuristic fired on v2: {modern:?}"
    );
    assert_eq!(
        modern.ok, modern.requests,
        "v2 rejected checksummed responses: {modern:?}"
    );
}

#[test]
fn panicking_completion_is_recovered_and_drain_stays_clean() {
    let mut cfg = config();
    cfg.panic_one_in = Some(64);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(5);
    let trace = TraceSpec::twitter_stable(500.0, 3.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(3, SCALE)).expect("replay");

    // Panics happened and were recovered; their batches came back as
    // typed failures, not silence.
    assert!(
        server.panics_recovered() >= 1,
        "injection produced no panics: {report:?}"
    );
    assert_eq!(report.lost, 0, "a panic swallowed answers: {report:?}");
    assert_eq!(report.accounted(), report.sent);
    assert!(report.failed > 0, "recovered batches not typed as failed");
    assert!(report.ok > 0);

    // The pool survived: drain completes with nothing outstanding (a dead
    // worker or an unaccounted batch would hang it until timeout).
    let drain = server.drain();
    assert!(drain.panics_recovered >= 1);
    assert_eq!(drain.failed, report.failed);
    assert_eq!(drain.outstanding_at_close, 0);
    assert_eq!(
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        report.sent
    );
}
