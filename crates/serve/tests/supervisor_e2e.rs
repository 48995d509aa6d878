//! End-to-end supervision: component chaos against a live server.
//!
//! Every long-lived server thread runs as a supervised component; these
//! tests inject deterministic panics and stalls into named components
//! (timer, dispatch workers, flusher, epoll shards) through the real front
//! door under real client load, and assert the two properties the
//! supervision tree exists for:
//!
//! 1. **Self-healing**: a panicked restartable component is respawned
//!    within its budget, re-attaches to surviving state, and service
//!    resumes — observable from the outside, not just in counters.
//! 2. **Conservation**: no request is ever silently lost across a panic,
//!    a restart, or an escalation. Mid-flight work is re-accounted as
//!    `Failed`, so `ok + shed + unserviceable + draining + failed` stays
//!    exactly equal to everything submitted, on both sides of the wire.
//!
//! The first test pins the *pre-supervision* failure mode (chaos with the
//! monitor disabled): a dead timer silently stops the Runtime Scheduler's
//! periodic reallocation forever, and nothing records that anything went
//! wrong.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{connection_storm, replay, LoadGenConfig, StormConfig};
use arlo_serve::protocol::{read_frame, Frame, WireVersion};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_serve::supervisor::SupervisorEventKind;
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;

fn engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    ArloEngine::new(profiles, counts, EngineConfig::paper_default(SLO_MS))
}

/// Baseline config: fast ticks (the timer beats every ~2 ms of real
/// time), quick restarts, and a budget high enough that recovery tests
/// never trip escalation by accident.
fn config(gpus: u32, time_scale: u32) -> ServeConfig {
    ServeConfig {
        time_scale,
        queue_capacity: 8192,
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(gpus)
    }
    .with_restart_policy(Duration::from_millis(1), 10_000)
}

fn assert_server_conserves(drain: &DrainReport) {
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server leaks requests: {drain:?}"
    );
    assert_eq!(drain.outstanding_at_close, 0, "drain left work behind");
    for t in &drain.tenants {
        assert_eq!(
            t.submits,
            t.served + t.shed + t.unserviceable + t.failed + t.outstanding_at_close,
            "tenant {} leaks requests: {t:?}",
            t.name
        );
    }
}

/// Poll `cond` until it holds or `what` times out.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// An engine whose deployment the Runtime Scheduler reshapes as soon as
/// it sees short requests: every GPU on the largest runtime, and a
/// one-virtual-second decision period (10 ms real at 100×), so the
/// single-tenant timer — the only caller of `maybe_reallocate` — applies
/// a plan within a few ticks of live demand.
fn reallocating_engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = NANOS_PER_SEC;
    cfg.sub_window = NANOS_PER_SEC / 4;
    ArloEngine::new(profiles, counts, cfg)
}

/// Keep short requests flowing over one connection, one at a time, for
/// `span` of real time or until `done` holds; returns whether it held.
/// This is the demand the timer's reallocation decisions are made from.
fn submit_until(
    addr: std::net::SocketAddr,
    span: Duration,
    mut done: impl FnMut() -> bool,
) -> bool {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let deadline = Instant::now() + span;
    for id in 0.. {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        Frame::Submit {
            id,
            length: 64,
            tenant: 0,
        }
        .write_to(&mut conn)
        .expect("submit");
        let frame = read_frame(&mut conn).expect("read").expect("frame");
        assert!(matches!(frame, Frame::Response { .. }), "{frame:?}");
    }
    unreachable!("the id space outlasts any test")
}

/// The pinned pre-supervision failure: with the monitor disabled, a timer
/// panic silently stops the timer's work *forever* — the exact wedge the
/// supervision tree exists to close. Chaos panics the timer on its first
/// beat; short requests then flow for thirty decision periods against a
/// deployment the Runtime Scheduler would reshape (see the supervised
/// twin below), yet no reallocation is ever applied, and no counter
/// anywhere records that the timer died.
#[test]
fn unsupervised_timer_panic_stops_reallocation_forever() {
    let cfg = config(4, 100)
        .with_supervision(false)
        .with_component_chaos(ComponentChaos::panics("timer", 1, 7));
    let server = Server::spawn(reallocating_engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    // Give the timer time to take (and die on) its first beat.
    std::thread::sleep(Duration::from_millis(50));

    // 300 ms real = 30 virtual seconds = 30 decision periods; a live
    // timer reallocates within a few of them.
    let reallocated = submit_until(server.local_addr(), Duration::from_millis(300), || {
        server.reallocations() > 0
    });
    assert!(
        !reallocated,
        "a reallocation was applied — the timer should be dead"
    );
    assert_eq!(
        server.supervisor_restarts(),
        0,
        "nothing restarts unsupervised"
    );
    assert!(
        server.supervisor_events().is_empty(),
        "and nothing is recorded"
    );

    let drain = server.drain();
    assert_eq!(drain.reallocations, 0, "{drain:?}");
    assert_server_conserves(&drain);
}

/// The tentpole fix for the wedge above: under supervision the panicked
/// timer is respawned within one backoff and resumes its work — the same
/// traffic that never moved the unsupervised server now gets its
/// deployment reshaped — and the structured event log records the panic
/// and the restart.
#[test]
fn supervised_timer_restarts_and_resumes_reallocation() {
    // One beat in 4 panics: the timer keeps dying and keeps coming back,
    // doing real work between deaths.
    let cfg = config(4, 100).with_component_chaos(ComponentChaos::panics("timer", 4, 11));
    let server = Server::spawn(reallocating_engine(4), "127.0.0.1:0", cfg).expect("bind loopback");

    wait_for("a timer restart", || server.supervisor_restarts() >= 1);
    let reallocated = submit_until(server.local_addr(), Duration::from_secs(10), || {
        server.reallocations() > 0
    });
    assert!(reallocated, "restarted timer never reallocated");

    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer" && e.kind == SupervisorEventKind::Panicked),
        "no recorded timer panic: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer"
                && matches!(e.kind, SupervisorEventKind::Restarted { .. })),
        "no recorded timer restart: {events:?}"
    );
    let drain = server.drain();
    assert!(drain.supervisor_restarts >= 1, "{drain:?}");
    assert!(drain.reallocations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// Dispatch workers panic mid-burst under live replay load: every
/// mid-flight message is re-accounted as `Failed` (answered, not leaked),
/// restarted workers re-subscribe to the surviving queue, and both sides
/// of the wire conserve exactly.
#[test]
fn dispatch_panics_under_load_conserve_and_restart() {
    let cfg = config(4, 100).with_component_chaos(ComponentChaos::panics("dispatch", 3, 13));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(17);
    let trace = TraceSpec::twitter_stable(400.0, 6.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(4, 100)).expect("replay");

    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.lost, 0, "panics must never lose answers: {report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    assert!(
        server.supervisor_restarts() >= 1,
        "one-in-3 beat panics never killed a dispatch worker"
    );
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component.starts_with("dispatch")
                && e.kind == SupervisorEventKind::Panicked),
        "{events:?}"
    );
    let drain = server.drain();
    assert_server_conserves(&drain);
    assert!(drain.supervisor_restarts >= 1);
}

/// A component that cannot stay up — every beat panics — exhausts its
/// restart budget and escalates: the hook runs exactly once, flips the
/// server into a fail-fast drain (new submits refused as `Draining`,
/// queued work answered as `Failed`), and the final drain is clean and
/// conserving instead of a wedge.
#[test]
fn budget_exhaustion_escalates_to_a_clean_conserving_drain() {
    let cfg = config(4, 100)
        .with_component_chaos(ComponentChaos::panics("dispatch", 1, 19))
        .with_restart_policy(Duration::from_millis(1), 2);
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(23);
    let trace = TraceSpec::twitter_stable(200.0, 4.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, 100)).expect("replay");

    // Every submit was still answered: re-accounted Failed, refused
    // Draining after escalation, or served before the first panic.
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    wait_for("escalation", || server.escalations() >= 1);
    assert!(server.is_escalated());
    assert!(server.is_draining(), "escalation drains fail-fast");
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Escalated),
        "{events:?}"
    );
    let drain = server.drain();
    assert!(drain.escalations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// An epoll shard is an [`arlo_serve::supervisor::RestartPolicy::Escalate`]
/// component: its panic dooms every connection it owns (closed by the
/// drop guard, never leaked) and fails the whole server fast into a clean
/// conserving drain. Clients on the dead shard see EOF, not silence.
#[test]
fn epoll_shard_panic_escalates_and_drains_clean() {
    let cfg = ServeConfig {
        shards: 1,
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("shard", 10, 29));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Drive submits until the shard dies under us; every write/read error
    // is the expected EOF from the doomed connection.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for id in 0..200u64 {
        let sent = Frame::Submit {
            id,
            length: 64,
            tenant: 0,
        }
        .write_to(&mut conn)
        .is_ok();
        if !sent {
            break;
        }
        match read_frame(&mut conn) {
            Ok(Some(_)) => {}
            _ => break,
        }
        if server.escalations() >= 1 {
            break;
        }
    }
    wait_for("shard escalation", || server.escalations() >= 1);
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component.starts_with("shard") && e.kind == SupervisorEventKind::Panicked),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Escalated),
        "{events:?}"
    );
    drop(conn);
    let drain = server.drain();
    assert!(drain.escalations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// The flusher panics while batches are held open for stragglers: the
/// restarted incarnation rebuilds its deadline heap from live coalescer
/// state, so every held batch still seals and every answer still arrives.
#[test]
fn flusher_restart_rebuilds_deadlines_and_loses_nothing() {
    let cfg = ServeConfig {
        // A real coalescing window so the flusher owns live deadlines:
        // 50 virtual ms at 100× is 0.5 ms real.
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            max_wait_ns: 50_000_000,
        },
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("flusher", 5, 31));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(37);
    let trace = TraceSpec::twitter_stable(400.0, 6.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::closed(4, 8)).expect("replay");
    assert_eq!(
        report.lost, 0,
        "a lost flush deadline strands answers: {report:?}"
    );
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    assert!(server.supervisor_restarts() >= 1, "flusher never died");
    let events = server.supervisor_events();
    assert!(
        events.iter().any(|e| e.component.starts_with("flusher")
            && matches!(e.kind, SupervisorEventKind::Restarted { .. })),
        "{events:?}"
    );
    assert_server_conserves(&server.drain());
}

/// Stall detection: a component that freezes (sleeps unparked past the
/// stall grace) without dying is reported as `Stalled` — one event per
/// episode, no restart (the thread is alive; killing it would lose state).
#[test]
fn stalled_timer_is_detected_not_restarted() {
    let cfg = config(4, 100)
        .with_component_chaos(ComponentChaos::stalls("timer", 2, 100, 41))
        .with_stall_grace(Duration::from_millis(10));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");

    wait_for("a stall detection", || server.stalls_detected() >= 1);
    assert_eq!(server.supervisor_restarts(), 0, "stalls are not panics");
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer" && e.kind == SupervisorEventKind::Stalled),
        "{events:?}"
    );
    assert_server_conserves(&server.drain());
}

/// The v2 storm speaks `BatchedSubmit`: a closed-loop window storm over
/// negotiated v2 connections conserves exactly like the v1 storm, the
/// server sees the connections as v2, and nothing is lost. (The port of
/// the window mode to the v2 replay path.)
#[test]
fn v2_window_storm_batches_refills_and_conserves() {
    let server = Server::spawn(engine(4), "127.0.0.1:0", config(4, 100)).expect("bind loopback");
    let storm = StormConfig {
        conns: 32,
        threads: 2,
        submits_per_conn: 24,
        hold: Duration::from_millis(10),
        ..StormConfig::new(32)
    }
    .with_window(4)
    .with_wire(WireVersion::V2);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");

    assert_eq!(report.connected, 32, "{report:?}");
    assert_eq!(report.submitted, 32 * 24, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");
    assert_eq!(server.v2_conns(), 32, "storm never negotiated v2");

    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_eq!(drain.submits, 32 * 24, "{drain:?}");
}

/// Component chaos against a supervised server under a v2 window storm:
/// the cross product the resilience bench sweeps, pinned here at its
/// hairiest single cell — dispatch panics while batched v2 refills are in
/// flight — with both conservation laws exact.
#[test]
fn v2_storm_survives_dispatch_panics_on_the_epoll_plane() {
    let cfg = config(4, 100).with_component_chaos(ComponentChaos::panics("dispatch", 3, 43));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let storm = StormConfig {
        conns: 16,
        threads: 2,
        submits_per_conn: 32,
        hold: Duration::from_millis(10),
        ..StormConfig::new(16)
    }
    .with_window(4)
    .with_wire(WireVersion::V2);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");
    assert!(server.supervisor_restarts() >= 1, "no dispatch worker died");
    let mut err_budget: u64 = 0;
    err_budget += report.failed; // re-accounted mid-flight bursts
    assert!(
        report.ok + err_budget + report.shed + report.unserviceable + report.draining
            == report.submitted,
        "{report:?}"
    );
    assert_server_conserves(&server.drain());
}
