//! End-to-end tests of the epoll event-loop mechanics: idle reaping and
//! doom-on-overflow are sweep- and readiness-driven, so they get their own
//! regressions here, alongside the acceptor's refusal-wave regression and
//! a smoke-scale connection storm.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{connection_storm, StormConfig};
use arlo_serve::protocol::{read_frame, ErrorCode, Frame, CONN_ERROR_ID, DEFAULT_TENANT};
use arlo_serve::server::{ServeConfig, Server};
use arlo_trace::NANOS_PER_SEC;
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

/// The half-open-socket defence on the event loop: silent connections are
/// reaped by the shard *sweep* — no thread blocks on a silent peer.
#[test]
fn idle_connections_are_reaped_on_the_event_loop() {
    let mut cfg = config();
    cfg.read_timeout = Duration::from_millis(25);
    cfg.idle_timeout = Duration::from_millis(250);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let held = TcpStream::connect(addr).expect("connect");
    let held2 = TcpStream::connect(addr).expect("connect");
    assert!(
        eventually(Duration::from_secs(2), || server.active_connections() == 2),
        "connections never registered"
    );

    assert!(
        eventually(Duration::from_secs(5), || server.reaped_idle() >= 2),
        "idle connections were not reaped: {} reaped, {} active",
        server.reaped_idle(),
        server.active_connections()
    );
    assert!(
        eventually(Duration::from_secs(2), || server.active_connections() == 0),
        "reaped connections still registered"
    );
    drop(held);
    drop(held2);

    let drain = server.drain();
    assert_eq!(drain.reaped_idle, 2);
    assert_eq!(drain.outstanding_at_close, 0);
}

/// Port of doom-on-overflow: a client that floods submits and never reads
/// a byte must overflow its bounded outbound queue and be doomed by its
/// shard — without wedging the event loop for anyone else.
#[test]
fn stalled_client_is_doomed_on_the_event_loop() {
    let mut cfg = config();
    // Tiny outbound bound + tight write timeout: the stall is detected by
    // queue overflow (respond-side) or a blocked socket write (shard-side)
    // — both must count exactly one slow disconnect.
    cfg.outbound_queue = 256;
    cfg.write_timeout = Duration::from_millis(150);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    let _ = stalled.set_nodelay(true);
    // Unserviceable lengths are answered straight from the dispatch
    // thread, so the error-frame storm outpaces any reader — except this
    // client never reads, so it backs up through the kernel into the
    // bounded queue.
    'burst: for i in 0..400_000u64 {
        let frame = Frame::Submit {
            id: 10_000_000 + i,
            length: 1_000_000,
            tenant: DEFAULT_TENANT,
        };
        if frame.write_to(&mut stalled).is_err() {
            break 'burst; // doomed mid-burst — expected
        }
    }
    assert!(
        eventually(Duration::from_secs(10), || server.slow_disconnects() >= 1),
        "stalled client was never doomed"
    );

    // The event loop is still serving: a healthy connection submits and
    // gets its answer while the stalled one is being torn down.
    let mut healthy = TcpStream::connect(addr).expect("connect");
    let _ = healthy.set_nodelay(true);
    healthy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    Frame::Submit {
        id: 1,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut healthy)
    .expect("submit");
    match read_frame(&mut healthy).expect("read answer") {
        Some(Frame::Response { id, .. }) => assert_eq!(id, 1),
        other => panic!("healthy client got {other:?}"),
    }
    drop(healthy);
    drop(stalled);

    let drain = server.drain();
    assert!(drain.slow_disconnects >= 1, "{drain:?}");
    assert_eq!(drain.outstanding_at_close, 0, "{drain:?}");
}

/// The acceptor regression: admission refusals are fire-and-forget. A wave of refused connectors that never read — the
/// peers that used to hold the acceptor hostage for a 1-second write
/// timeout each — must neither delay admission of a healthy connection
/// nor lose their typed refusal frame.
#[test]
fn refusals_never_stall_the_epoll_acceptor() {
    const WAVE: usize = 20;
    let mut cfg = config();
    cfg.max_conns = 1;
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Occupy the only admission slot.
    let holder = TcpStream::connect(addr).expect("connect holder");
    assert!(
        eventually(Duration::from_secs(2), || server.active_connections() == 1),
        "holder never registered"
    );

    // The wave: every one of these is refused, and none of them reads its
    // refusal yet. Under the old acceptor each write carried a 1 s
    // timeout; a single adversarial peer could stall admission for
    // everyone behind it in the backlog.
    let wave_started = Instant::now();
    let mut refused: Vec<TcpStream> = (0..WAVE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("refused connect {i}: {e}")))
        .collect();
    assert!(
        eventually(Duration::from_secs(5), || {
            server.refused_conns() >= WAVE as u64
        }),
        "acceptor refused {} of {WAVE}",
        server.refused_conns()
    );
    // Well under one old-style write timeout for the whole wave, let
    // alone one per connection.
    assert!(
        wave_started.elapsed() < Duration::from_secs(5),
        "refusal wave took {:?}",
        wave_started.elapsed()
    );

    // Free the slot; a healthy client gets in promptly even though the
    // wave's sockets still hold their unread refusals.
    drop(holder);
    assert!(
        eventually(Duration::from_secs(2), || server.active_connections() == 0),
        "holder never deregistered"
    );
    let mut healthy = TcpStream::connect(addr).expect("healthy connect");
    let _ = healthy.set_nodelay(true);
    healthy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    Frame::Submit {
        id: 7,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut healthy)
    .expect("submit");
    match read_frame(&mut healthy).expect("read answer") {
        Some(Frame::Response { id, .. }) => assert_eq!(id, 7),
        other => panic!("healthy client got {other:?}"),
    }

    // Fire-and-forget still delivers: every refused socket holds exactly
    // one typed Shed verdict followed by EOF.
    for (i, conn) in refused.iter_mut().enumerate() {
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match read_frame(conn).expect("read refusal") {
            Some(Frame::Error { id, code }) => {
                assert_eq!(id, CONN_ERROR_ID, "refusal {i}");
                assert_eq!(code, ErrorCode::Shed, "refusal {i}");
            }
            other => panic!("refused conn {i} got {other:?}"),
        }
        assert!(
            matches!(read_frame(conn), Ok(None)),
            "refused conn {i} not closed"
        );
    }

    drop(healthy);
    let drain = server.drain();
    assert_eq!(drain.refused_conns, WAVE as u64, "{drain:?}");
    assert_eq!(drain.outstanding_at_close, 0, "{drain:?}");
}

/// Smoke-scale run of the benchmark's connection-scaling cell: a few
/// hundred concurrent connections held by the epoll client pool, every
/// submit conserved, nothing lost.
#[test]
fn connection_storm_conserves_at_smoke_scale() {
    const CONNS: usize = 400;
    let mut cfg = config();
    cfg.max_conns = CONNS + 64;
    cfg.idle_timeout = Duration::from_secs(60);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut storm = StormConfig::new(CONNS);
    storm.threads = 2;
    storm.submits_per_conn = 2;
    storm.hold = Duration::from_millis(300);
    let report = connection_storm(addr, &storm).expect("storm");

    assert_eq!(report.connect_errors, 0, "{report:?}");
    assert_eq!(report.connected, CONNS as u64, "{report:?}");
    assert_eq!(report.refused, 0, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");
    assert_eq!(report.submitted, (CONNS * 2) as u64, "{report:?}");
    assert!(report.ok > 0, "{report:?}");

    let drain = server.drain();
    assert_eq!(drain.outstanding_at_close, 0, "{drain:?}");
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server-side conservation: {drain:?}"
    );
}
