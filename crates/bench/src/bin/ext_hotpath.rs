//! **Extension** — hot-path sharding benchmark: 10⁶ requests through the
//! live server at `time_scale = 1000`, unsharded baseline vs sharded.
//!
//! PR 9 refactored the three contended structures on the serving hot path:
//! the process-global connection registry became an N-way lock-striped
//! [`StripedMap`](arlo_serve::StripedMap), the single per-tenant dispatch
//! thread became M workers draining a shared
//! [`BoundedQueue`](arlo_serve::BoundedQueue) with burst popping, and the
//! executor's coalescer state was sharded by placement key. All three are
//! config knobs with the old shape as the `1` setting — so this benchmark
//! can run the *same binary* in both shapes and hold them to each other.
//!
//! The grid, on 4 epoll shards: {baseline: 1 dispatch worker, 1 registry
//! stripe, 1 executor shard} vs {sharded: 4 workers, 64 stripes, 16
//! shards}. Each cell drives a 10⁶-request closed-loop trace (8
//! connections, window 128) from a re-exec'd storm-client child process
//! ([`arlo_bench::storm`])
//! and asserts **exact conservation** on both sides of the wire:
//! `ok + shed + unserviceable + draining == submitted`, nothing lost,
//! nothing refused, drain leaves zero outstanding. Per-structure
//! contention counters (registry lock ops, dispatch queue depth/burst
//! occupancy, executor shard lock ops) come from
//! [`Server::hotpath_stats`](arlo_serve::server::Server::hotpath_stats).
//!
//! Throughput gates are honest about the host: the sharded shape must not
//! regress the baseline (hard floor at 0.95× — sub-5% is loopback noise at
//! this request count), and the 1.5× speedup gate applies where it can
//! physically exist — hosts with ≥ 4 CPUs, where dispatch workers and the
//! epoll shards actually run in parallel. On a single-CPU host the win is
//! contention structure, not parallelism (fewer lock acquisitions, one
//! wakeup per burst), and the cell records the measured ratio instead of
//! asserting a number the hardware cannot produce.
//!
//! `EXT_HOTPATH_SMOKE=1` shrinks the trace to 20k requests for CI.
//!
//! Writes `results/BENCH_hotpath.json`.

use arlo_bench::storm::{run_storm_child, storm_child_role, StormCounts};
use arlo_bench::{json_f64, print_table, write_json};
use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::StormConfig;
use arlo_serve::server::{HotpathStats, ServeConfig, Server};
use arlo_trace::NANOS_PER_SEC;
use std::time::Duration;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
/// The tentpole's scale floor: 10⁶ virtual-time requests must complete at
/// a 1000× speed-up without the clock math or the locks falling over.
const SCALE: u32 = 1_000;
const CONNS: usize = 8;
/// Epoll event loops serving the connections.
const SHARDS: usize = 4;
const WINDOW: u32 = 128;
/// 10⁶ requests split over [`CONNS`] connections.
const FULL_TOTAL: u64 = 1_000_000;
const SMOKE_TOTAL: u64 = 20_000;

fn smoke() -> bool {
    std::env::var("EXT_HOTPATH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn profiles() -> Vec<RuntimeProfile> {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    profile_runtimes(&family.compile(), SLO_MS, 512)
}

fn engine() -> ArloEngine {
    let profiles = profiles();
    let n = profiles.len();
    let mut counts = vec![GPUS / n as u32; n];
    for c in counts.iter_mut().take(GPUS as usize % n) {
        *c += 1;
    }
    // Reallocation effectively off (one decision per 10⁵ virtual seconds):
    // the cell measures the hot path, not the allocator.
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    cfg.sub_window = cfg.allocation_period / 10;
    ArloEngine::new(profiles, counts, cfg)
}

/// One shape of the hot path: all three knobs move together.
#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    dispatch_workers: usize,
    conn_stripes: usize,
    executor_shards: usize,
}

const BASELINE: Shape = Shape {
    name: "baseline",
    dispatch_workers: 1,
    conn_stripes: 1,
    executor_shards: 1,
};
const SHARDED: Shape = Shape {
    name: "sharded",
    dispatch_workers: 4,
    conn_stripes: 64,
    executor_shards: 16,
};

fn serve_config(shape: Shape) -> ServeConfig {
    let mut cfg = ServeConfig {
        time_scale: SCALE,
        // Far above the closed-loop in-flight ceiling (CONNS × WINDOW =
        // 1024): the cell measures throughput, and a shed would break the
        // serve-everything comparison between shapes.
        queue_capacity: 65_536,
        tick_interval: NANOS_PER_SEC,
        drain_timeout: Duration::from_secs(120),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        shards: SHARDS,
        ..ServeConfig::new(GPUS)
    };
    cfg.max_conns = CONNS + 64;
    cfg.idle_timeout = Duration::from_secs(600);
    cfg.with_dispatch_workers(shape.dispatch_workers)
        .with_conn_stripes(shape.conn_stripes)
        .with_executor_shards(shape.executor_shards)
}

struct Cell {
    shape: Shape,
    counts: StormCounts,
    stats: HotpathStats,
    /// Wall seconds of the child's submit/answer phase.
    wall_s: f64,
    /// Answers per wall second.
    throughput: f64,
}

/// One cell: the closed-loop storm from a child process (keeping client
/// fds and client CPU out of the server process) against one shape.
fn run_cell(shape: Shape, total: u64) -> Cell {
    let submits_per_conn = total / CONNS as u64;
    let server =
        Server::spawn(engine(), "127.0.0.1:0", serve_config(shape)).expect("bind loopback");

    let mut storm = StormConfig::new(CONNS).with_window(WINDOW);
    storm.threads = 2;
    storm.submits_per_conn = submits_per_conn as u32;
    storm.hold = Duration::from_millis(50);
    storm.connect_timeout = Duration::from_secs(20);
    storm.deadline = Duration::from_secs(600);
    let counts = run_storm_child(server.local_addr(), &storm, || {});
    let g = |k: &str| counts[k];
    let tag = shape.name;

    // Exact conservation, client side: every submit written terminates in
    // exactly one accounted outcome, nothing lost, nothing refused.
    assert_eq!(g("connect_errors"), 0, "{tag}: {counts:?}");
    assert_eq!(g("connected"), CONNS as u64, "{tag}: {counts:?}");
    assert_eq!(g("refused"), 0, "{tag}: {counts:?}");
    assert_eq!(g("failed"), 0, "{tag}: {counts:?}");
    assert_eq!(g("lost"), 0, "{tag}: {counts:?}");
    assert_eq!(g("conserved"), 1, "{tag}: {counts:?}");
    assert_eq!(
        g("submitted"),
        submits_per_conn * CONNS as u64,
        "{tag}: {counts:?}"
    );
    assert_eq!(
        g("ok") + g("shed") + g("unserviceable") + g("draining"),
        g("submitted"),
        "{tag}: {counts:?}"
    );

    let stats = server.hotpath_stats();
    assert_eq!(stats.dispatch_workers, shape.dispatch_workers, "{tag}");
    assert_eq!(
        stats.executor_shards,
        shape.executor_shards.next_power_of_two(),
        "{tag}"
    );
    assert_eq!(
        stats.dispatch_queue_full, 0,
        "{tag}: sheds would skew the comparison"
    );

    // Exact conservation, server side: drain flushes everything.
    let drain = server.drain();
    assert_eq!(drain.outstanding_at_close, 0, "{tag}: {drain:?}");
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "{tag}: server-side conservation: {drain:?}"
    );
    assert_eq!(
        drain.submits,
        g("submitted"),
        "{tag}: wire vs drain submit count"
    );

    let wall_s = g("wall_ms") as f64 / 1e3;
    Cell {
        shape,
        throughput: g("ok") as f64 / wall_s,
        counts,
        stats,
        wall_s,
    }
}

fn main() {
    if storm_child_role() {
        return;
    }
    let total = if smoke() { SMOKE_TOTAL } else { FULL_TOTAL };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ext_hotpath: {total} requests/cell, scale {SCALE}, {CONNS} conns, window {WINDOW}, \
         {cpus} cpu(s){}",
        if smoke() { " [smoke]" } else { "" }
    );

    let cells = [run_cell(BASELINE, total), run_cell(SHARDED, total)];

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shape.name.to_string(),
                format!("{}", c.counts["ok"]),
                format!("{:.1}", c.wall_s),
                format!("{:.0}", c.throughput),
                format!("{}", c.stats.registry_lock_ops),
                format!("{}", c.stats.dispatch_depth_high_water),
                format!(
                    "{:.1}",
                    c.stats.dispatch_pop_msgs as f64 / c.stats.dispatch_pop_batches.max(1) as f64
                ),
                format!("{}", c.stats.executor_lock_ops),
            ]
        })
        .collect();
    print_table(
        "hot path: baseline vs sharded",
        &[
            "shape",
            "ok",
            "wall s",
            "req/s",
            "reg lock ops",
            "q high water",
            "burst occ",
            "exec lock ops",
        ],
        &rows,
    );

    // The throughput gates.
    let [base, shard] = &cells;
    let ratio = shard.throughput / base.throughput;
    println!(
        "sharded/baseline throughput ratio {ratio:.3} ({:.0} vs {:.0} req/s)",
        shard.throughput, base.throughput
    );
    // Hard floor: sharding must not regress the retained baseline (0.95
    // absorbs loopback scheduling noise at this request count).
    assert!(
        ratio >= 0.95,
        "sharded hot path regressed the baseline: ratio {ratio:.3}"
    );
    // The 1.5× gate needs hardware parallelism to exist: with ≥ 4 CPUs the
    // dispatch workers and shard threads actually overlap. On smaller
    // hosts the ratio is recorded, not asserted.
    if cpus >= 4 && !smoke() {
        assert!(
            ratio >= 1.5,
            "expected ≥ 1.5× on a {cpus}-cpu host, measured {ratio:.3}"
        );
    }

    let json = serde_json::json!({
        "config": {
            "requests_per_cell": total,
            "time_scale": SCALE,
            "conns": CONNS,
            "window": WINDOW,
            "shards": SHARDS,
            "cpus": cpus,
            "smoke": smoke(),
            "speedup_gate_active": cpus >= 4 && !smoke(),
        },
        "cells": cells.iter().map(|c| serde_json::json!({
            "shape": c.shape.name,
            "dispatch_workers": c.shape.dispatch_workers,
            "conn_stripes": c.stats.conn_stripes,
            "executor_shards": c.stats.executor_shards,
            "counts": serde_json::Value::Object(
                c.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                    .collect(),
            ),
            "wall_s": json_f64(c.wall_s),
            "throughput_rps": json_f64(c.throughput),
            "registry_lock_ops": c.stats.registry_lock_ops,
            "dispatch_queue_full": c.stats.dispatch_queue_full,
            "dispatch_depth_high_water": c.stats.dispatch_depth_high_water,
            "dispatch_pop_batches": c.stats.dispatch_pop_batches,
            "dispatch_pop_msgs": c.stats.dispatch_pop_msgs,
            "dispatch_burst_occupancy": json_f64(
                c.stats.dispatch_pop_msgs as f64 / c.stats.dispatch_pop_batches.max(1) as f64
            ),
            "executor_lock_ops": c.stats.executor_lock_ops,
        })).collect::<Vec<_>>(),
        "speedup": json_f64(ratio),
    });
    write_json("BENCH_hotpath", &json);
}
