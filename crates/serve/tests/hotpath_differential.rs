//! Differential stress test for the sharded hot path: the *same* trace
//! driven through the retained single-dispatch baseline and the sharded
//! shape (multi-worker dispatch, striped registry, sharded executor
//! state) must produce identical serving outcomes — every submit answered,
//! exact conservation on both sides of the wire, nothing shed under
//! non-overload.
//!
//! This is the default-test-run companion to the `ext_hotpath` benchmark:
//! small enough to live in `cargo test`, but it exercises the identical
//! refactored machinery — closed-loop storm client, dispatch-queue burst
//! draining, stripe-then-push responders, per-shard coalescer state.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{connection_storm, StormConfig, StormReport};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_trace::NANOS_PER_SEC;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
const SCALE: u32 = 1_000;
const CONNS: usize = 6;
const SUBMITS_PER_CONN: u32 = 2_500;
const WINDOW: u32 = 64;

fn engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let n = profiles.len();
    let counts = vec![GPUS / n as u32 + 1; n];
    // Reallocation off: both shapes must see an identical fleet.
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    ArloEngine::new(profiles, counts, cfg)
}

fn config(dispatch_workers: usize, conn_stripes: usize, executor_shards: usize) -> ServeConfig {
    let cfg = ServeConfig {
        time_scale: SCALE,
        // Above the in-flight ceiling (CONNS × WINDOW): non-overload, so
        // a shed in either shape is a bug, not backpressure.
        queue_capacity: 8_192,
        tick_interval: NANOS_PER_SEC,
        drain_timeout: Duration::from_secs(60),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(GPUS)
    };
    cfg.with_dispatch_workers(dispatch_workers)
        .with_conn_stripes(conn_stripes)
        .with_executor_shards(executor_shards)
}

/// Drive the closed-loop trace against a server of the given shape and
/// return the wire-side and drain-side accounting.
fn run_shape(cfg: ServeConfig) -> (StormReport, DrainReport) {
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let mut storm = StormConfig::new(CONNS).with_window(WINDOW);
    storm.threads = 2;
    storm.submits_per_conn = SUBMITS_PER_CONN;
    storm.hold = Duration::from_millis(20);
    storm.deadline = Duration::from_secs(120);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");
    let drain = server.drain();
    (report, drain)
}

fn assert_served_everything(tag: &str, report: &StormReport, drain: &DrainReport) {
    let total = u64::from(SUBMITS_PER_CONN) * CONNS as u64;
    assert_eq!(report.connect_errors, 0, "{tag}: {report:?}");
    assert_eq!(report.refused, 0, "{tag}: {report:?}");
    assert_eq!(report.submitted, total, "{tag}: {report:?}");
    assert!(report.conserved(), "{tag}: {report:?}");
    assert_eq!(report.lost, 0, "{tag}: {report:?}");
    assert_eq!(report.failed, 0, "{tag}: {report:?}");
    assert_eq!(
        report.shed, 0,
        "{tag}: non-overload must not shed: {report:?}"
    );
    assert_eq!(report.ok, total, "{tag}: every submit answered: {report:?}");
    assert_eq!(drain.submits, total, "{tag}: {drain:?}");
    assert_eq!(drain.served, total, "{tag}: {drain:?}");
    assert_eq!(drain.outstanding_at_close, 0, "{tag}: {drain:?}");
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "{tag}: server-side conservation: {drain:?}"
    );
}

/// The differential: identical traces through the unsharded baseline and
/// the sharded shape; both must serve 100% with exact conservation, and
/// their outcome counts must agree exactly.
#[test]
fn sharded_and_baseline_serve_identical_traces_identically() {
    let (base_report, base_drain) = run_shape(config(1, 1, 1));
    assert_served_everything("baseline", &base_report, &base_drain);

    let (shard_report, shard_drain) = run_shape(config(4, 64, 16));
    assert_served_everything("sharded", &shard_report, &shard_drain);

    // Outcome-count equality is implied by the per-shape asserts (both
    // serve exactly `total`), stated once more as the differential's
    // headline claim.
    assert_eq!(base_report.ok, shard_report.ok);
    assert_eq!(base_drain.served, shard_drain.served);
}

/// Shutdown with multiple dispatch workers blocked on an idle queue must
/// complete promptly — the satellite regression at the server level: drain
/// must not wait out any polling tick to stop the dispatch plane.
#[test]
fn drain_with_idle_dispatch_workers_is_prompt() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config(4, 64, 16)).expect("bind loopback");
    // No traffic at all: every dispatch worker is parked in pop_many.
    let started = Instant::now();
    let drain = server.drain();
    assert_eq!(drain.submits, 0, "{drain:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle drain took {:?}",
        started.elapsed()
    );
}
